package wal

import (
	"os"
	"syscall"
)

// allocate reserves n bytes of f from off (fallocate mode 0): the blocks
// are allocated and the size grows, but no data is written, so the space
// reads as zeros.
func allocate(f *os.File, off, n int64) error {
	return retryEINTR(func() error { return syscall.Fallocate(int(f.Fd()), 0, off, n) })
}

// datasync is fdatasync: it makes f's data durable, and its metadata only
// where reading the data needs it.
func datasync(f *os.File) error {
	return retryEINTR(func() error { return syscall.Fdatasync(int(f.Fd())) })
}

func retryEINTR(call func() error) error {
	for {
		if err := call(); err != syscall.EINTR {
			return err
		}
	}
}
