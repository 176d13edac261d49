package main

// phoebectl backup — one-shot backup/restore tooling over a WAL archive:
//
//	phoebectl backup create  -dir <db-dir> -archive <archive-dir>
//	phoebectl backup verify  -archive <archive-dir>
//	phoebectl backup restore -archive <archive-dir> -dest <new-db-dir> [-target-gsn N]
//
// create takes an offline base backup of a stopped database (a running
// server takes online ones itself; see phoebeserver -archive-dir and
// DB.BaseBackup). verify checks every checksum in the archive — manifest,
// segments, base backups — and prints a summary. restore materializes a
// fresh database directory, optionally cut at -target-gsn for
// point-in-time recovery; open it normally afterwards (recovery replays
// the materialized log).

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
)

func runBackup(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: phoebectl backup create|verify|restore [flags]")
	}
	switch args[0] {
	case "create":
		fs := flag.NewFlagSet("backup create", flag.ExitOnError)
		dir := fs.String("dir", "", "database directory (database must be stopped)")
		arch := fs.String("archive", "", "archive directory")
		fs.Parse(args[1:])
		if *dir == "" || *arch == "" {
			return fmt.Errorf("backup create needs -dir and -archive")
		}
		var startGSN uint64
		if img, err := os.ReadFile(filepath.Join(*dir, "checkpoint.db")); err == nil {
			hdr, _, herr := core.ReadCheckpointHeader(img)
			if herr != nil {
				return herr
			}
			startGSN = hdr.GSN
		}
		a, err := backup.OpenArchiver(filepath.Join(*dir, "wal"), *arch, startGSN)
		if err != nil {
			return err
		}
		label, bdir, err := a.BaseBackup(backup.BaseSource{DataDir: *dir})
		if err != nil {
			return err
		}
		fmt.Printf("base backup %s (checkpoint GSN %d, horizon GSN %d, %d files)\n",
			bdir, label.CheckpointGSN, label.HorizonGSN, len(label.Files))
		return nil

	case "verify":
		fs := flag.NewFlagSet("backup verify", flag.ExitOnError)
		arch := fs.String("archive", "", "archive directory")
		fs.Parse(args[1:])
		if *arch == "" {
			return fmt.Errorf("backup verify needs -archive")
		}
		rep, err := backup.Verify(*arch)
		if err != nil {
			return err
		}
		fmt.Printf("archive ok: %d sealed epochs, %d segments, %d records, %d bytes, horizon GSN %d\n",
			rep.Epochs, rep.Segments, rep.Records, rep.ArchivedBytes, rep.HorizonGSN)
		if rep.ContinuousFrom != 0 {
			fmt.Printf("history continuous from GSN %d (earlier history requires a base backup)\n", rep.ContinuousFrom)
		}
		for _, b := range rep.Bases {
			if b.Complete {
				fmt.Printf("base %06d: ok (checkpoint GSN %d, horizon GSN %d)\n",
					b.Seq, b.Label.CheckpointGSN, b.Label.HorizonGSN)
			} else {
				fmt.Printf("base %06d: INCOMPLETE — %s\n", b.Seq, b.Problem)
			}
		}
		return nil

	case "restore":
		fs := flag.NewFlagSet("backup restore", flag.ExitOnError)
		arch := fs.String("archive", "", "archive directory")
		dest := fs.String("dest", "", "destination database directory (must be empty or absent)")
		target := fs.Uint64("target-gsn", 0, "point-in-time target GSN (0 = everything)")
		fs.Parse(args[1:])
		if *arch == "" || *dest == "" {
			return fmt.Errorf("backup restore needs -archive and -dest")
		}
		rep, err := backup.Restore(*arch, *dest, *target)
		if err != nil {
			return err
		}
		if rep.BaseSeq >= 0 {
			fmt.Printf("restored from base %06d (checkpoint GSN %d)", rep.BaseSeq, rep.CheckpointGSN)
		} else {
			fmt.Printf("restored from archived history")
		}
		fmt.Printf(" + %d log records", rep.Records)
		if rep.TargetGSN != 0 {
			fmt.Printf(" up to target GSN %d", rep.TargetGSN)
		}
		fmt.Printf(" into %s\n", *dest)
		fmt.Println("open the directory normally; recovery replays the materialized log")
		return nil

	default:
		return fmt.Errorf("unknown backup subcommand %q (create|verify|restore)", args[0])
	}
}
