//go:build !linux

package wal

import (
	"errors"
	"os"
)

// allocate fails where fallocate does not exist: the log is appended to.
func allocate(*os.File, int64, int64) error { return errors.ErrUnsupported }

// datasync is fsync, which also syncs the size each append changes.
func datasync(f *os.File) error { return f.Sync() }
