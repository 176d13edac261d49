//go:build unix

package wire_test

import "syscall"

// openFilesLimit returns the soft RLIMIT_NOFILE, or 0 if unknown.
func openFilesLimit() uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0
	}
	return uint64(lim.Cur)
}
