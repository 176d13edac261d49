package wal

import (
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
	"time"
)

// BenchmarkWritePattern times one small durable log write, point_update's
// 105-byte commit, under three patterns: appended and fsynced (the log
// before it was written in place), appended and fdatasynced, and written
// in place into fallocate-reserved space and fdatasynced (the log now).
// It reports the median and 99th-percentile latency of a write plus its
// sync, and the process's CPU time per write. The file lives in the test's
// temporary directory, so the numbers are that file system's:
//
//	go test ./internal/wal -run '^$' -bench WritePattern -benchtime 3000x
func BenchmarkWritePattern(b *testing.B) {
	rec := make([]byte, 105)
	for _, p := range []struct {
		name    string
		inPlace bool
		sync    func(*os.File) error
	}{
		{"append_fsync", false, (*os.File).Sync},
		{"append_fdatasync", false, datasync},
		{"inplace_fdatasync", true, datasync},
	} {
		b.Run(p.name, func(b *testing.B) {
			flags := os.O_RDWR | os.O_CREATE
			if !p.inPlace {
				flags |= os.O_APPEND
			}
			f, err := os.OpenFile(filepath.Join(b.TempDir(), "log"), flags, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			var off, end int64
			lat := make([]time.Duration, 0, b.N)
			cpu0 := cpuTime(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if p.inPlace {
					if off+int64(len(rec)) > end {
						if err := allocate(f, end, reserveChunk); err != nil {
							b.Skipf("fallocate: %v", err)
						}
						end += reserveChunk
					}
					_, err = f.WriteAt(rec, off)
				} else {
					_, err = f.Write(rec)
				}
				if err == nil {
					err = p.sync(f)
				}
				if err != nil {
					b.Fatal(err)
				}
				off += int64(len(rec))
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50_us")
			b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "p99_us")
			b.ReportMetric(float64((cpuTime(b)-cpu0).Nanoseconds())/1e3/float64(b.N), "cpu_us/write")
		})
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
