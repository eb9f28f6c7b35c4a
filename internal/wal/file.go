package wal

// FileLog: the durable write-ahead log. A log is a directory of numbered
// segment files (%016x.wal); records append to the newest with an fsync per
// appended batch — one commit via Append, or a whole group of parked commits
// via AppendGroup — the log rotates to a fresh file when the current one
// outgrows its budget (and at every checkpoint truncation), and recovery
// replays the files in sequence order. A torn record is tolerated only at the very end of the
// newest file — exactly where a crash mid-append leaves one — and is
// truncated away before new appends; a tear anywhere earlier is corruption
// and fails the open.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pdtstore/internal/pdt"
	"pdtstore/internal/vfs"
)

// DefaultMaxFileBytes is the size at which Append rotates to a new log file.
const DefaultMaxFileBytes = 64 << 20

// sealedFile is a closed log segment kept until checkpoint truncation frees
// it. maxLSN is the LSN of its last record (0 when it holds none).
type sealedFile struct {
	path    string
	records int
	maxLSN  uint64
}

// FileLog is a durable Log over a directory of rotated segment files. All
// methods are safe for concurrent use.
type FileLog struct {
	mu       sync.Mutex
	dir      string
	f        vfs.File
	w        *Writer
	seq      uint64 // sequence number of the current file
	curPath  string
	curRecs  int
	curMax   uint64 // LSN of the last record in the current file
	sealed   []sealedFile
	maxBytes int64
	syncs    uint64 // durability barriers performed (fsyncs that succeeded); TestFileLogGroupAppend reads it
}

func logFileName(seq uint64) string { return fmt.Sprintf("%016x.wal", seq) }

func parseLogFileName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// OpenFileLog opens (creating if needed) the log directory, replays every
// segment in sequence order and returns the committed records plus a log
// positioned to append after them. A torn tail in the newest file is
// truncated to its valid prefix; a torn or undecodable record anywhere else
// is an error.
func OpenFileLog(dir string) (*FileLog, []Record, error) {
	if err := vfs.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	names, err := vfs.FS.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []uint64
	for _, e := range names {
		if seq, ok := parseLogFileName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	l := &FileLog{dir: dir, maxBytes: DefaultMaxFileBytes}
	var records []Record
	var lastLSN uint64
	for i, seq := range seqs {
		path := filepath.Join(dir, logFileName(seq))
		recs, consumed, err := replayFile(path)
		if errors.Is(err, ErrTornTail) {
			if i != len(seqs)-1 {
				return nil, nil, fmt.Errorf("wal: %s: torn record in a non-final log file: %w", path, err)
			}
			// A crash mid-append: keep the valid prefix, drop the tear.
			if terr := vfs.FS.Truncate(path, consumed); terr != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, terr)
			}
		} else if err != nil {
			return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
		}
		records = append(records, recs...)
		fileMax := uint64(0)
		if len(recs) > 0 {
			fileMax = recs[len(recs)-1].LSN
			lastLSN = fileMax
		}
		if i != len(seqs)-1 {
			l.sealed = append(l.sealed, sealedFile{path: path, records: len(recs), maxLSN: fileMax})
		} else {
			l.seq, l.curPath, l.curRecs, l.curMax = seq, path, len(recs), fileMax
		}
	}
	if len(seqs) == 0 {
		l.seq = 1
		l.curPath = filepath.Join(dir, logFileName(1))
	}
	f, err := vfs.FS.OpenFile(l.curPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l.f = f
	l.w = NewSyncedWriter(f, l.syncCurrent)
	l.w.SetLSN(lastLSN)
	vfs.FS.SyncDir(dir)
	return l, records, nil
}

// syncCurrent is the durability barrier of the current file: one fsync per
// flushed append (single record or whole group). It runs under l.mu, from
// inside the writer's append.
func (l *FileLog) syncCurrent() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	return nil
}

func replayFile(path string) ([]Record, int64, error) {
	f, err := vfs.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	return replayConsumed(f, fi.Size())
}

// Append durably writes one commit record (flush + fsync) and returns its
// LSN, rotating to a new file afterwards when the current one is over budget.
func (l *FileLog) Append(tableName string, entries []pdt.RebuildEntry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lsn uint64
	err := l.appendLocked(1, func() (err error) {
		lsn, err = l.w.Append(tableName, entries)
		return err
	})
	return lsn, err
}

// AppendGroup durably writes a batch of commit records behind one fsync,
// each at its own LSN (ascending from the stream's last LSN, gaps allowed —
// the shared commit clock's other shards own the skipped LSNs). The batch is
// all-or-nothing: on error the log is poisoned and none of the group's
// records may surface at replay.
func (l *FileLog) AppendGroup(recs []GroupRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(len(recs), func() error { return l.w.AppendGroup(recs) })
}

// appendLocked runs one append (single record or group of n) with the shared
// failure retraction and rotation policy around it.
func (l *FileLog) appendLocked(n int, do func() error) error {
	if err := l.w.Err(); err != nil {
		return err // poisoned: nothing to write, and nothing to retract
	}
	var preSize int64 = -1
	if fi, serr := l.f.Stat(); serr == nil {
		preSize = fi.Size()
	}
	if err := do(); err != nil {
		// The writer is poisoned, but a failed *fsync* may have left the
		// records flushed to the page cache, where writeback could later
		// make the aborted commits durable behind our back. Best-effort
		// retract the bytes; if even that fails, the log stays poisoned and
		// replay's torn-tail handling covers whatever lands on disk.
		if preSize >= 0 {
			if terr := l.f.Truncate(preSize); terr == nil {
				l.f.Sync()
			}
		}
		return err
	}
	l.curRecs += n
	l.curMax = l.w.LSN()
	if fi, err := l.f.Stat(); err == nil && fi.Size() >= l.maxBytes {
		// Rotation failure is not a commit failure — the records are durable;
		// the next append keeps the current file and retries rotation.
		_ = l.rotateLocked()
	}
	return nil
}

// LSN returns the LSN of the last record appended.
func (l *FileLog) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.LSN()
}

// SetLSN moves the clock so the next Append returns lsn+1 (only ever raised,
// by recovery, to resume a pre-crash sequence recorded in the manifest).
func (l *FileLog) SetLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.SetLSN(lsn)
}

// Err returns the sticky append failure that poisoned the log, if any.
func (l *FileLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Err()
}

// rotateLocked seals the current file and starts a fresh one, carrying the
// LSN clock over. On failure the current file stays active.
func (l *FileLog) rotateLocked() error {
	next := l.seq + 1
	path := filepath.Join(l.dir, logFileName(next))
	f, err := vfs.FS.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		f.Close()
		vfs.FS.Remove(path)
		return err
	}
	l.sealed = append(l.sealed, sealedFile{path: l.curPath, records: l.curRecs, maxLSN: l.curMax})
	w := NewSyncedWriter(f, l.syncCurrent)
	w.SetLSN(l.w.LSN())
	l.f, l.w = f, w
	l.seq, l.curPath, l.curRecs, l.curMax = next, path, 0, 0
	vfs.FS.SyncDir(l.dir)
	return nil
}

// TruncateBelow drops every log record with LSN <= lsn — the WAL-truncation
// step after a checkpoint whose manifest records lsn. The current file is
// rotated out first, then every sealed file whose records all fall at or
// below the bar is deleted. Files that straddle the bar are kept whole:
// recovery filters replay by the manifest LSN anyway, so over-retention is
// only space, never double-application.
func (l *FileLog) TruncateBelow(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Err(); err != nil {
		return err
	}
	if l.curRecs > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.records == 0 || s.maxLSN <= lsn {
			if err := vfs.FS.Remove(s.path); err != nil {
				kept = append(kept, s)
			}
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	vfs.FS.SyncDir(l.dir)
	return nil
}

// SizeBytes returns the total on-disk size of all live log files.
func (l *FileLog) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, s := range l.sealed {
		if fi, err := vfs.FS.Stat(s.path); err == nil {
			total += fi.Size()
		}
	}
	if fi, err := vfs.FS.Stat(l.curPath); err == nil {
		total += fi.Size()
	}
	return total
}

// Files returns the number of live log files (sealed plus current).
func (l *FileLog) Files() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close closes the current log file. The log must not be appended to after.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
