//go:build !unix

package wire_test

// openFilesLimit reports the descriptor limit as unknown.
func openFilesLimit() uint64 { return 0 }
