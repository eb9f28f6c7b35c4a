package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

func appendN(t *testing.T, l *FileLog, n int) (lastLSN uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := l.Append("t", sampleEntries())
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	return lastLSN
}

func TestFileLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	appendN(t, l, 5)
	if l.LSN() != 5 {
		t.Fatalf("LSN = %d", l.LSN())
	}
	l.Close()

	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 5 || recs[4].LSN != 5 {
		t.Fatalf("reopen replayed %d records (last %v)", len(recs), recs[len(recs)-1].LSN)
	}
	// The clock continues the pre-crash sequence.
	lsn, err := l2.Append("t", nil)
	if err != nil || lsn != 6 {
		t.Fatalf("post-reopen append: lsn=%d err=%v", lsn, err)
	}
}

// TestFileLogTruncatesTornTailOnOpen simulates a crash mid-append by chopping
// bytes off the newest file: reopening must surface the valid prefix, truncate
// the tear, and append cleanly after it.
func TestFileLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	path := l.curPath
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", len(recs))
	}
	// The tear is gone: append then reopen sees 2 old + 1 new records.
	if lsn, err := l2.Append("t", nil); err != nil || lsn != 3 {
		t.Fatalf("append after tear: lsn=%d err=%v", lsn, err)
	}
	l2.Close()
	l3, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("after repair: %d records", len(recs))
	}
}

// TestFileLogZeroFilledTailRecovery: delayed allocation can extend the
// newest file with zeros on a crash. A zero header passes CRC framing
// (size=0, crc32("")==0), so it must be classified as a tear and truncated,
// not surfaced as unrecoverable corruption.
func TestFileLogZeroFilledTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	path := l.curPath
	l.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatalf("open over zero-filled tail: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if lsn, err := l2.Append("t", nil); err != nil || lsn != 3 {
		t.Fatalf("append after zero-tail repair: lsn=%d err=%v", lsn, err)
	}
	l2.Close()
	l3, recs, err := OpenFileLog(dir)
	if err != nil || len(recs) != 3 {
		t.Fatalf("after repair: %d records, err=%v", len(recs), err)
	}
	l3.Close()
}

// TestFileLogTornMiddleFileFails: a torn record in a non-final file is real
// corruption, not a crash artifact, and must fail the open.
func TestFileLogTornMiddleFileFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	first := l.curPath
	l.mu.Lock()
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()
	appendN(t, l, 2)
	l.Close()

	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFileLog(dir); !errors.Is(err, ErrTornTail) {
		t.Fatalf("open over mid-sequence tear: err = %v, want wrapped ErrTornTail", err)
	}
}

func TestFileLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.maxBytes = 1 // force a rotation on every append
	appendN(t, l, 4)
	if l.Files() < 4 {
		t.Fatalf("expected a file per append, have %d", l.Files())
	}

	// Truncate through LSN 2: files holding only records 1-2 must go, the
	// rest must survive, and replay after reopen yields exactly 3 and 4.
	if err := l.TruncateBelow(2); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 2 || recs[0].LSN != 3 || recs[1].LSN != 4 {
		lsns := make([]uint64, len(recs))
		for i, r := range recs {
			lsns[i] = r.LSN
		}
		t.Fatalf("post-truncate replay LSNs = %v, want [3 4]", lsns)
	}
	if l2.LSN() != 4 {
		t.Fatalf("clock = %d, want 4", l2.LSN())
	}

	// Truncating everything empties the directory of old files but keeps the
	// clock moving for the next commit.
	if err := l2.TruncateBelow(4); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l2.Append("t", nil); err != nil || lsn != 5 {
		t.Fatalf("append after full truncate: lsn=%d err=%v", lsn, err)
	}
}

// TestFileLogAppendIsDurable: bytes must be on disk (not just buffered) when
// Append returns, so a crash immediately after commit loses nothing.
func TestFileLogAppendIsDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append("t", []pdt.RebuildEntry{{SID: 0, Kind: pdt.KindIns,
		Ins: types.Row{types.Int(1), types.Str("a"), types.Float(0), types.BoolVal(true), types.DateVal(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	// Read the file back through the OS without closing the log: the record
	// must be complete on disk.
	recs, _, err := replayFile(filepath.Join(dir, logFileName(1)))
	if err != nil || len(recs) != 1 || recs[0].LSN != lsn {
		t.Fatalf("on-disk state after Append: %d records, err=%v", len(recs), err)
	}
	l.Close()
}

// syncsOf reads how many durability barriers l has performed.
func syncsOf(l *FileLog) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// TestFileLogGroupAppend: one AppendGroup is one fsync for the whole batch,
// the records are individually durable on disk, and a reopen replays them
// with consecutive LSNs.
func TestFileLogGroupAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	preSyncs := syncsOf(l)
	group := make([]GroupRecord, 5)
	for i := range group {
		group[i] = GroupRecord{LSN: uint64(3 + i), Table: "t", Entries: sampleEntries()}
	}
	if err := l.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if l.LSN() != 7 {
		t.Fatalf("group LSNs end at %d, want 7", l.LSN())
	}
	if got := syncsOf(l) - preSyncs; got != 1 {
		t.Fatalf("group of 5 cost %d fsyncs, want 1", got)
	}
	recs, _, err := replayFile(filepath.Join(dir, logFileName(1)))
	if err != nil || len(recs) != 7 {
		t.Fatalf("on-disk state after group: %d records, err=%v", len(recs), err)
	}
	l.Close()

	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 7 {
		t.Fatalf("reopen replayed %d records, want 7", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}

// TestFileLogGroupSyncFailureRetracts: when the batch's one fsync fails, the
// log is poisoned, the flushed bytes are retracted, and a reopen surfaces
// only the pre-failure records — no transaction of the failed batch can
// resurface via page-cache writeback.
func TestFileLogGroupSyncFailureRetracts(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	l.FailNextSync(errors.New("injected: device died at the barrier"))
	group := []GroupRecord{
		{LSN: 4, Table: "t", Entries: sampleEntries()},
		{LSN: 5, Table: "t", Entries: sampleEntries()},
	}
	if err := l.AppendGroup(group); err == nil {
		t.Fatal("group append with failing fsync succeeded")
	}
	if l.LSN() != 3 {
		t.Fatalf("failed group consumed LSNs: %d", l.LSN())
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after failed group fsync")
	}
	if _, err := l.Append("t", sampleEntries()); err == nil {
		t.Fatal("poisoned log accepted another append")
	}
	l.Close()

	l2, recs, err := OpenFileLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("reopen surfaced %d records, want the 3 pre-failure ones", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
}
