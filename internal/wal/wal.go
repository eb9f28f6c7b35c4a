// Package wal implements the write-ahead log the paper assumes alongside
// differential update processing (§2, footnote: "at each commit column-stores
// need to write information in a Write-Ahead-Log, but that causes only
// sequential I/O").
//
// Each committed transaction appends one record holding its serialized
// Trans-PDT entry dump. Recovery replays the records in LSN order,
// propagating each rebuilt PDT into a fresh Write-PDT over the checkpointed
// stable image — the sequence of folds the original commits performed.
//
// Writer frames and encodes records over any io.Writer (tests, benchmarks);
// FileLog is the durable form: a directory of rotated log files with an
// fsync per flushed batch, torn-tail repair at open, and LSN-bounded
// truncation after a checkpoint. Both satisfy Log, which the transaction
// manager appends to: a whole group of parked commits behind a single
// durability barrier (AppendGroupAt, the group-commit path: n records, one
// write, one fsync, consecutive LSNs, all-or-nothing). Append writes one
// record the same way.
//
// A sharded table runs one log per shard, all allocating LSNs from one
// global commit clock, so each stream carries a gapped subsequence of a
// single total order (AppendGroupAt appends a batch at caller-chosen LSNs).
// A cross-shard commit appends one record per participant stream, all at the
// same LSN and each naming the full participant set (Record.Parts);
// CompleteGroups cross-checks the replayed streams at recovery and drops
// any group that did not reach every participant, making a commit torn
// between two streams' fsyncs all-or-nothing.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

// ErrTornTail reports that a log stream ends in a partial or corrupt record —
// the normal aftermath of a crash mid-append. Replay returns it alongside the
// valid prefix: recovery applies the prefix and truncates the tear, while a
// tear anywhere but the end of the newest log file is treated as real
// corruption by the file log.
var ErrTornTail = errors.New("wal: torn tail")

// maxRecordSize bounds a record body; a length prefix beyond it is garbage
// from a torn header, not a real record.
const maxRecordSize = 1 << 30

// Record is one committed transaction. Shard names the key-range shard whose
// Write-PDT the entries target (0 for an unsharded table). A cross-shard
// transaction appends one record per participant shard, all stamped with the
// same LSN (the global commit clock ticks once per transaction, not per
// shard); Parts lists every participant so recovery can verify the group made
// it to all of their streams before applying any of it.
type Record struct {
	LSN     uint64
	Table   string
	Shard   uint32
	Parts   []uint32 // participant shards of a cross-shard commit (nil otherwise)
	Entries []pdt.RebuildEntry
}

// GroupRecord is one commit of a batched append: the table it targets, the
// shard its entries are positioned in, and the serialized Trans-PDT entries
// of the transaction. Parts is set only on cross-shard commit records.
type GroupRecord struct {
	Table   string
	Shard   uint32
	Parts   []uint32
	Entries []pdt.RebuildEntry
}

// Log is the commit log the transaction manager appends to: an in-memory
// *Writer, or a durable *FileLog that fsyncs every batch.
type Log interface {
	// AppendGroupAt durably writes a batch of commit records behind one
	// flush (and one fsync, on a synced log); record i carries LSN
	// first+i. A sharded table's streams share one global commit clock, so
	// a shard's leader allocates a contiguous LSN run from the clock and
	// stamps its stream explicitly; gaps relative to the stream's previous
	// record are legal (other shards own those LSNs), but first must exceed
	// the stream's last LSN. The batch is all-or-nothing — on error none of
	// its records is appended, the clock does not move, and the log is
	// poisoned.
	AppendGroupAt(first uint64, recs []GroupRecord) error
	// LSN returns the LSN of the last record appended.
	LSN() uint64
	// SetLSN moves the clock so the next Append returns lsn+1.
	SetLSN(lsn uint64)
}

// Writer appends records to a log stream. The encode buffer is reused
// across Append calls, so steady-state commits serialize without
// per-record allocation.
//
// A failed append poisons the writer (fail-stop): the
// half-written frames are dropped from the buffer, the clock stays put, and
// every later append returns the original error. Without this, a record
// whose flush failed — for a commit the caller therefore aborted — would
// linger in the buffer and ride out to disk with the next successful append,
// resurrecting an aborted transaction at replay. For a group the poisoning
// is collective: none of the batch's records consumed an LSN, so every
// transaction parked on the batch must abort. A poisoned writer must be
// replaced (over a
// truncated or repaired log) before logging can resume; the torn tail it may
// leave behind is exactly what Replay already stops cleanly at.
type Writer struct {
	out  io.Writer
	w    *bufio.Writer
	lsn  uint64
	buf  []byte
	one  [1]GroupRecord // scratch so Append reuses the group path allocation-free
	sync func() error   // called after each flushed append (fsync-on-commit)
	err  error          // sticky first append failure
}

// NewWriter wraps an io.Writer (a file, or a buffer in tests).
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: w, w: bufio.NewWriter(w)}
}

// NewSyncedWriter is NewWriter plus a durability barrier: sync (typically
// (*os.File).Sync) runs after every flushed record, so Append returning nil
// means the commit is on stable storage. A failed sync poisons the writer
// exactly like a failed write.
func NewSyncedWriter(w io.Writer, sync func() error) *Writer {
	return &Writer{out: w, w: bufio.NewWriter(w), sync: sync}
}

// Err returns the sticky failure that poisoned the writer, if any.
func (w *Writer) Err() error { return w.err }

// LSN returns the LSN of the last record appended (0 before any append).
func (w *Writer) LSN() uint64 { return w.lsn }

// SetLSN moves the writer's clock so the next Append returns lsn+1. Recovery
// uses it to continue the pre-crash LSN sequence on a fresh writer: replayed
// state and newly appended records then share one monotonic clock, and the
// transaction manager's commit clock never diverges from the log's.
func (w *Writer) SetLSN(lsn uint64) { w.lsn = lsn }

// Append writes one commit record at the next LSN and returns that LSN. The
// record is durable (flushed) when Append returns nil; on error nothing of
// it stays buffered and the LSN is not consumed. The entries are serialized
// before Append returns, so they may alias live PDT storage (pdt.Dump's
// contract).
func (w *Writer) Append(tableName string, entries []pdt.RebuildEntry) (uint64, error) {
	lsn := w.lsn + 1
	w.one[0] = GroupRecord{Table: tableName, Entries: entries}
	err := w.AppendGroupAt(lsn, w.one[:])
	w.one[0] = GroupRecord{}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendGroupAt writes a batch of commit records framed back to back, with
// one buffered write, one flush and — on a synced writer — one fsync for the
// whole batch: the group-commit durability barrier. Record i carries LSN
// first+i, so the caller can hand every parked transaction in the batch its
// own LSN. first must exceed the stream's last LSN; it need not be
// contiguous with it — per-shard streams of one table share a global commit
// clock, so each stream sees a gapped subsequence of it. The batch is
// all-or-nothing: when AppendGroupAt returns nil every record is durable in
// order and the stream's clock advances to first+len(recs)-1; on error the
// writer is poisoned, the clock stays put, and no record of the group may
// surface at replay (a torn prefix of the batch is exactly the tail Replay
// truncates).
func (w *Writer) AppendGroupAt(first uint64, recs []GroupRecord) error {
	if w.err != nil {
		return w.err
	}
	if len(recs) == 0 {
		return errors.New("wal: empty append group")
	}
	if first <= w.lsn {
		// The shared commit clock regressed relative to this stream: the
		// global LSN-order invariant is broken, so the stream is poisoned —
		// appending on would interleave duplicate LSNs into the replay merge.
		w.err = fmt.Errorf("wal: non-monotonic append: first LSN %d, stream already at %d", first, w.lsn)
		return w.err
	}
	// One frame per record, all in the reused encode buffer: 8-byte header
	// (length + CRC of the body) followed by the body, exactly the layout
	// Replay expects, so a group is indistinguishable from the same records
	// appended one by one.
	w.buf = w.buf[:0]
	for i, rec := range recs {
		start := len(w.buf)
		w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
		w.buf = encodeRecord(w.buf, Record{LSN: first + uint64(i), Table: rec.Table,
			Shard: rec.Shard, Parts: rec.Parts, Entries: rec.Entries})
		body := w.buf[start+8:]
		binary.LittleEndian.PutUint32(w.buf[start:start+4], uint32(len(body)))
		binary.LittleEndian.PutUint32(w.buf[start+4:start+8], crc32.ChecksumIEEE(body))
	}
	err := func() error {
		if _, err := w.w.Write(w.buf); err != nil {
			return err
		}
		if err := w.w.Flush(); err != nil {
			return err
		}
		if w.sync != nil {
			return w.sync()
		}
		return nil
	}()
	if err != nil {
		w.err = fmt.Errorf("wal: append failed: %w", err)
		w.w.Reset(w.out) // drop whatever of the group is still unflushed
		return w.err
	}
	w.lsn = first + uint64(len(recs)) - 1
	return nil
}

// Replay reads records until EOF. A clean end returns a nil error; a partial
// or corrupt final record returns the valid prefix together with ErrTornTail,
// so the caller can distinguish "log ends here" from "log was cut mid-write"
// and truncate the tear before appending again. Only a record that fails its
// CRC or length framing is a tear; a CRC-valid record that does not decode is
// real corruption and fails replay. The whole stream is read first, so every
// frame is checked against the bytes that are there before a buffer is
// allocated for its body.
func Replay(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	out, _, torn := replayConsumed(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return out, err
	}
	return out, torn
}

// replayConsumed is Replay of a stream of total bytes plus the byte length of
// the valid prefix — what a file log truncates a torn file down to. A frame
// claiming more bytes than the stream holds is classified as a tear up front,
// instead of allocating a buffer for a garbage length read out of a torn
// header.
func replayConsumed(r io.Reader, total int64) ([]Record, int64, error) {
	br := bufio.NewReader(r)
	var out []Record
	var consumed int64
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, consumed, nil
			}
			if err == io.ErrUnexpectedEOF {
				return out, consumed, ErrTornTail
			}
			return out, consumed, err
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(size) > total-consumed-8 {
			return out, consumed, fmt.Errorf("%w: record frame overruns the stream", ErrTornTail)
		}
		if size == 0 {
			// A real record body is never empty (it carries at least the LSN,
			// table length and entry count), and CRC32 of nothing is 0 — so a
			// zero header would pass framing. Zero-filled tails are a classic
			// crash artifact of delayed allocation; classify them as a tear,
			// not corruption, so recovery truncates instead of failing.
			return out, consumed, fmt.Errorf("%w: zero-length record frame", ErrTornTail)
		}
		if size > maxRecordSize {
			return out, consumed, fmt.Errorf("%w: implausible record size %d", ErrTornTail, size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return out, consumed, ErrTornTail
			}
			return out, consumed, err
		}
		if crc32.ChecksumIEEE(body) != sum {
			return out, consumed, fmt.Errorf("%w: record checksum mismatch", ErrTornTail)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return out, consumed, err
		}
		out = append(out, rec)
		consumed += 8 + int64(size)
	}
}

// CompleteGroups filters the replayed tails of a sharded table's per-shard
// WAL streams down to cross-shard commits that reached every participant.
// streams[s] holds shard s's records (LSN-ascending, as Replay returns them);
// baseLSNs[s] is the LSN already materialized into shard s's checkpointed
// image (its manifest LSN) — records at or below it were truncated or
// filtered away, so their absence from the stream proves nothing.
//
// A cross-shard commit appends one record per participant, all at the same
// LSN, and installs only after every append is durable. A crash between two
// shards' appends therefore leaves an incomplete group: records that were
// never installed and that no later commit could have observed. Those
// orphans are dropped — from every stream — so reopen is all-or-nothing per
// commit clock entry. Single-shard records (empty Parts) pass through.
func CompleteGroups(streams [][]Record, baseLSNs []uint64) [][]Record {
	present := make([]map[uint64]bool, len(streams))
	for s, recs := range streams {
		present[s] = make(map[uint64]bool, len(recs))
		for _, rec := range recs {
			present[s][rec.LSN] = true
		}
	}
	complete := func(rec Record) bool {
		for _, p := range rec.Parts {
			if int(p) >= len(streams) {
				return false
			}
			if !present[p][rec.LSN] && rec.LSN > baseLSNs[p] {
				return false
			}
		}
		return true
	}
	out := make([][]Record, len(streams))
	for s, recs := range streams {
		kept := recs[:0]
		for _, rec := range recs {
			if len(rec.Parts) <= 1 || complete(rec) {
				kept = append(kept, rec)
			}
		}
		out[s] = kept
	}
	return out
}

// --- binary encoding ---------------------------------------------------------

// encodeRecord appends rec's serialized body to buf and returns it.
func encodeRecord(buf []byte, rec Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = types.AppendString(buf, rec.Table)
	buf = binary.LittleEndian.AppendUint32(buf, rec.Shard)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Parts)))
	for _, p := range rec.Parts {
		buf = binary.LittleEndian.AppendUint32(buf, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Entries)))
	for _, e := range rec.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.SID)
		buf = binary.LittleEndian.AppendUint16(buf, e.Kind)
		switch e.Kind {
		case pdt.KindIns:
			buf = types.AppendRow(buf, e.Ins)
		case pdt.KindDel:
			buf = types.AppendRow(buf, e.Del)
		default:
			buf = types.AppendValue(buf, e.Mod)
		}
	}
	return buf
}

// minEntrySize is the smallest encoded entry: an SID, a kind and the count
// of an empty row.
const minEntrySize = 8 + 2 + 4

// decodeRecord is encodeRecord's inverse. Every count is bounded by the bytes
// left before anything is allocated from it, and a body with bytes past its
// last entry is corrupt: a record decodes only from exactly its encoding.
func decodeRecord(buf []byte) (Record, error) {
	var rec Record
	r := &types.Reader{Buf: buf}
	rec.LSN = r.U64()
	rec.Table = r.Str()
	rec.Shard = r.U32()
	if np := r.Count(4); np > 0 {
		rec.Parts = make([]uint32, np)
		for i := range rec.Parts {
			rec.Parts[i] = r.U32()
		}
	}
	rec.Entries = make([]pdt.RebuildEntry, r.Count(minEntrySize))
	for i := range rec.Entries {
		e := pdt.RebuildEntry{SID: r.U64(), Kind: r.U16()}
		switch e.Kind {
		case pdt.KindIns:
			e.Ins = r.Row()
		case pdt.KindDel:
			e.Del = r.Row()
		default:
			e.Mod = r.Value()
		}
		rec.Entries[i] = e
	}
	if r.Err != nil {
		return rec, fmt.Errorf("wal: corrupt record: %w", r.Err)
	}
	if len(r.Buf) > 0 {
		return rec, fmt.Errorf("wal: corrupt record: %d bytes past the last entry", len(r.Buf))
	}
	return rec, nil
}
