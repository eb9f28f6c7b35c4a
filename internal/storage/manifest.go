package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pdtstore/internal/types"
)

// ManifestName is the pointer file naming the current segment generation.
const ManifestName = "MANIFEST"

// Manifest is the durable root of a store directory. Swapping it (an atomic
// rename) is the commit point of a checkpoint: after the swap, recovery loads
// each shard's segment chain and replays only that shard's WAL records past
// its freeze LSN; before it, recovery loads the previous generation and
// replays the full log. Either way the reconstructed state is exactly the
// committed state.
type Manifest struct {
	// Generation counts checkpoints; segment files are named after it.
	Generation uint64 `json:"generation"`
	// Segment, Segments and LSN are the flat form every store wrote before
	// the one-shard store became the only shape: the image, its chain and its
	// freeze LSN at top level, no Shards. LoadManifest lifts them into
	// Shards[0] and clears them; nothing else reads them, and the store only
	// ever writes the Shards form.
	Segment  string   `json:"segment,omitempty"`
	Segments []string `json:"segments,omitempty"`
	LSN      uint64   `json:"lsn,omitempty"`
	// Shards has one entry per shard (one for an unsharded store): entry i
	// names shard i's stable image and its own freeze LSN (shards checkpoint
	// independently, so the bars differ). All LSNs live on one global commit
	// clock shared by every shard's WAL stream.
	Shards []ShardEntry `json:"shards,omitempty"`
	// Splits are the len(Shards)-1 ascending full-sort-key cuts routing keys
	// to shards: shard 0 owns keys below Splits[0], shard i owns
	// [Splits[i-1], Splits[i]), the last shard owns the rest. Fixed at the
	// split forever — shard boundaries never move at checkpoint.
	Splits []types.Row `json:"splits,omitempty"`
}

// ShardEntry is one shard's slot in the manifest.
type ShardEntry struct {
	// Segment is the file name (within the store directory) of the shard's
	// newest segment, the one whose footer carries the block map.
	Segment string `json:"segment"`
	// Segments, when non-empty, is the shard's full segment chain, oldest
	// first: an incremental checkpoint writes only dirty blocks into a new
	// segment (always the last chain member, equal to Segment) and its block
	// map resolves inherited blocks into the earlier members. An absent chain
	// is the single self-contained Segment.
	Segments []string `json:"segments,omitempty"`
	// LSN is the shard's checkpoint freeze bar: every commit touching this
	// shard with LSN <= this is contained in the image, every later commit is
	// only in the WAL.
	LSN uint64 `json:"lsn"`
}

// Chain returns the shard's segment chain, oldest first, normalizing the
// single-segment form.
func (e ShardEntry) Chain() []string {
	if len(e.Segments) > 0 {
		return e.Segments
	}
	return []string{e.Segment}
}

// WriteManifest durably installs m as dir's manifest: write to a temp file,
// fsync, rename over ManifestName, fsync the directory.
func WriteManifest(dir string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: fsync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: swap manifest: %w", err)
	}
	syncDir(dir)
	return nil
}

// LoadManifest reads dir's manifest. ok is false when none exists (a fresh
// directory); any other failure is an error — a store with an unreadable
// manifest must not be silently re-initialized over live data.
func LoadManifest(dir string) (m Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("storage: corrupt manifest: %w", err)
	}
	if len(m.Shards) == 0 {
		if m.Segment == "" {
			return Manifest{}, false, fmt.Errorf("storage: manifest names no segment")
		}
		m.Shards = []ShardEntry{{Segment: m.Segment, Segments: m.Segments, LSN: m.LSN}}
	}
	m.Segment, m.Segments, m.LSN = "", nil, 0
	for i := range m.Shards {
		if m.Shards[i].Segment == "" {
			return Manifest{}, false, fmt.Errorf("storage: manifest shard %d names no segment", i)
		}
		if err := validateChain(&m.Shards[i]); err != nil {
			return Manifest{}, false, fmt.Errorf("storage: manifest shard %d: %w", i, err)
		}
	}
	if len(m.Splits) != len(m.Shards)-1 {
		return Manifest{}, false, fmt.Errorf("storage: manifest has %d shards but %d split keys", len(m.Shards), len(m.Splits))
	}
	if err := validateSplits(m.Splits); err != nil {
		return Manifest{}, false, err
	}
	if len(m.Splits) == 0 {
		m.Splits = nil // the form WriteManifest writes
	}
	return m, true, nil
}

// validateChain checks a shard's segment names: each must be a plain file name
// in the store directory (a checkpoint unlinks the names it supersedes, so
// "../x" would delete outside it), and the newest chain member must be the
// segment the entry points at (readers resolve the block map out of it). An
// empty chain becomes none, the form WriteManifest writes.
func validateChain(sh *ShardEntry) error {
	if len(sh.Segments) == 0 {
		sh.Segments = nil
	}
	for _, nm := range append([]string{sh.Segment}, sh.Segments...) {
		if nm == "." || nm == ".." || filepath.Base(nm) != nm {
			return fmt.Errorf("storage: manifest segment %q is not a file name in the store directory", nm)
		}
	}
	if n := len(sh.Segments); n > 0 && sh.Segments[n-1] != sh.Segment {
		return fmt.Errorf("storage: manifest chain ends at %q, segment is %q", sh.Segments[n-1], sh.Segment)
	}
	return nil
}

// validateSplits checks that the split keys are non-empty rows of one shape
// in strictly ascending order: ShardOf binary-searches them, and comparing
// values of different or unknown kinds panics.
func validateSplits(splits []types.Row) error {
	for i, s := range splits {
		if len(s) == 0 || len(s) != len(splits[0]) {
			return fmt.Errorf("storage: manifest split %d has %d key columns, split 0 has %d", i, len(s), len(splits[0]))
		}
		for j, v := range s {
			if v.K != splits[0][j].K || v.K > types.Date {
				return fmt.Errorf("storage: manifest split %d column %d has kind %v", i, j, v.K)
			}
		}
		if i > 0 && types.CompareRows(splits[i-1], s) >= 0 {
			return fmt.Errorf("storage: manifest splits %d and %d are not strictly ascending", i-1, i)
		}
	}
	return nil
}
