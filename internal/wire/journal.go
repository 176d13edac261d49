package wire

import "strings"

// LegacyJournal returns, in order, the statements of a schema.sql journal
// written by a release before CREATE TABLE and CREATE INDEX were logged in
// the WAL. One statement sits on each line. A statement followed by a
// "--revoke" line failed to apply and is dropped. A last line without its
// newline is a torn append whose statement never ran, and is dropped too.
// Files from the releases before revocations existed hold plain lines and
// read the same way.
func LegacyJournal(data []byte) []string {
	lines := strings.Split(string(data), "\n")
	var stmts []string
	for i, q := range lines[:len(lines)-1] { // the last is empty or torn
		if q == "" || q == "--revoke" || lines[i+1] == "--revoke" {
			continue
		}
		stmts = append(stmts, q)
	}
	return stmts
}
