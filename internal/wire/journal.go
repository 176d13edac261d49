package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"phoebedb/internal/core"
)

// revokeMarker cancels the statement recorded immediately before it.
// A marker is appended when a journaled DDL statement fails to execute,
// so replay skips it instead of re-applying a statement the catalog
// rejected.
const revokeMarker = "--revoke"

// Journal is the server's durable DDL journal. The ordering invariant is
// journal-first: a statement is
// recorded (and fsynced) BEFORE it executes, so a crash between the two
// replays the statement forward on restart — the journal can only ever
// be ahead of the catalog, never behind it. When execution fails after
// recording, a revoke marker is appended so replay skips the statement;
// if even the marker cannot be written, Exec reports the journal as
// inconsistent rather than leaving a silent divergence.
//
// The format is one statement per line. Files written by earlier
// releases (plain statement lines, no markers) replay unchanged.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenJournal opens (creating if needed) the journal at path. A final
// line without its newline is an append a crash tore: journal-first means
// it never executed, so it is cut off (and the cut fsynced) before the
// next statement could be glued onto it.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if end := bytes.LastIndexByte(data, '\n') + 1; err == nil && end != len(data) {
		if err = f.Truncate(int64(end)); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("schema journal: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// appendLine writes one line and fsyncs it.
func (j *Journal) appendLine(line string) error {
	if _, err := fmt.Fprintln(j.f, line); err != nil {
		return err
	}
	return j.f.Sync()
}

// Exec runs a DDL statement under the journal-first protocol: record the
// statement durably, run apply, and on apply failure append a revoke
// marker so replay skips it. A failure to record prevents execution
// entirely; a failure to revoke after a failed apply is reported as a
// journal inconsistency (the statement would otherwise replay on the
// next restart even though it never took effect).
func (j *Journal) Exec(stmt string, apply func() error) error {
	if strings.ContainsAny(stmt, "\n\r") {
		return fmt.Errorf("wire: DDL statement contains newline; cannot journal")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLine(stmt); err != nil {
		return fmt.Errorf("schema journal: %w", err)
	}
	aerr := apply()
	if aerr == nil {
		return nil
	}
	if rerr := j.appendLine(revokeMarker); rerr != nil {
		return fmt.Errorf("schema journal inconsistent: statement %q failed (%v) and revoke marker could not be written: %w", stmt, aerr, rerr)
	}
	return aerr
}

// ReplayError is a journaled statement the catalog refused at replay: the
// schema on disk cannot be rebuilt, and serving on would mean serving half
// of it.
type ReplayError struct {
	Stmt string
	Err  error
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("schema journal: replaying %q: %v", e.Stmt, e.Err)
}

func (e *ReplayError) Unwrap() error { return e.Err }

// Replay re-executes the journaled statements in order through exec,
// skipping revoked entries, and returns how many it applied. A statement
// the catalog already holds (core.ErrExists: the crash came between record
// and a completed apply, or the caller declared schema before replaying)
// is expected and skipped; any other failure stops the replay with a
// *ReplayError.
func (j *Journal) Replay(exec func(stmt string) error) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	var stmts []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), MaxFrame)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == revokeMarker:
			if len(stmts) > 0 {
				stmts = stmts[:len(stmts)-1]
			}
		default:
			stmts = append(stmts, line)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	for i, s := range stmts {
		if err := exec(s); err != nil && !errors.Is(err, core.ErrExists) {
			return i, &ReplayError{Stmt: s, Err: err}
		}
	}
	return len(stmts), nil
}
