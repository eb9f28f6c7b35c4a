package txn

// Online maintenance: Write→Read propagation and checkpointing without
// quiescence. The key invariant is that every installed (store, Read-PDT)
// version is immutable — folds always produce a new PDT (pdt.Fold) — so a
// transaction's pinned view never changes under it, and maintenance needs
// the manager lock only for the freeze and the final pointer swap:
//
//	freeze (locked):   frozen ← writePDT; writePDT ← empty; commits go on
//	fold (unlocked):   folded ← Fold(cur.readPDT, frozen)
//	install (locked):  cur ← {store, folded}; frozen ← nil
//
// While the fold runs, every view stacks the frozen layer between the
// Read-PDT and its Write-PDT snapshot (TABLE₀ ∘ R ∘ F ∘ W ∘ T), which is
// the same image by construction. Checkpoint is the same dance with one more
// unlocked step: the folded view is streamed into a brand-new stable image
// whose SID domain equals the RID domain the during-build commits were
// expressed in, so the side Write-PDT becomes the new version's Read-PDT
// verbatim. Retired versions are released when their last reader finishes,
// evicting the retired image's blocks from the device's buffer pool.
//
// The build is off every commit path: a commit parked during it folds onto
// the side layer, which the swap installs as the next Read-PDT. Who waits
// for what, per shard (a cond.Wait on m.mu unless marked off-lock):
//
//	enqueue          nothing (takes its participants' m.mu in shard order)
//	committer        off-lock, its commit's resolution
//	leader round     its WAL append; at a member, the member's resolution
//	leader, head     off-lock, the members queued ahead of its head member
//	leader yield     a waiting freeze or swap
//	resolution       beginGate, then each participant's m.mu in shard order
//	freeze (entry)   no checkpoint, no frozen layer, no round
//	swap/rollback    no round
//	background fold  nothing (folds off-lock, installs under m.mu)
//
// Begin takes each m.mu briefly under beginGate's read side; db.mu is held
// by a DB checkpoint from its first build to its last truncation.
//
// The graph is acyclic. Between shards, a leader waits for its batch's
// cross-shard member X until every other participant's leader has appended
// X, and holds X back until the members queued ahead of X elsewhere resolve.
// An enqueue holds all its participants' mutexes and takes its LSN under
// them, so two cross-shard commits sit in LSN order on every shard they
// share: a member waits only on smaller LSNs, and the smallest unresolved
// one has only single-shard commits, which need just their round's append,
// ahead of it. Freeze and swap wait on rounds only and a leader yields to
// them only between rounds, so a swap waiting for a member in flight waits
// on other shards' leaders, which never wait for this shard's checkpoint.
// db.mu is taken before any m.mu, never under one, and a build may commit
// (across shards too) because no commit waits for a build.

import (
	"fmt"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
)

// MaterializeFn builds the new stable image for a checkpoint. It runs with no
// manager lock held while commits keep flowing. freezeLSN is the commit clock
// at the freeze point: every commit with LSN <= freezeLSN is contained in the
// streamed view (store ∘ deltas), every later commit lands only in the side
// write layer (and the WAL). A durable checkpoint records freezeLSN in its
// manifest so recovery knows which WAL records the image already contains.
type MaterializeFn func(freezeLSN uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error)

// freezeLocked hands the current write layer to maintenance and restarts
// commits in a fresh one. The three fields must change together: from here
// on every view stacks the frozen layer between the Read-PDT and its
// Write-PDT snapshot, and the stale snapshot cache must not resurface.
// Callers must exclude an in-flight group-commit round (m.inflight == 0):
// parked commits have their folds rebased onto the fresh layer here, but a
// batch already handed to the WAL cannot be.
func (m *Manager) freezeLocked() *pdt.PDT {
	frozen := m.writePDT
	m.frozen = frozen
	m.writePDT = pdt.New(m.schema, pdt.DefaultFanout)
	m.snapCache = nil
	m.rebasePendingLocked()
	return frozen
}

// rebasePendingLocked refolds the parked commit chain onto the current
// Write-PDT after the layer under it changed (a freeze moved the old write
// layer into the frozen slot, or a checkpoint swap/rollback replaced it).
// The commits' serialized entries are already positioned in the RID domain
// the new layer absorbs, so only the precomputed folds need recomputing. A
// refold failure aborts that commit and everything parked behind it (their
// serializations chained onto it) and wedges the shard: a member aborted
// here may be durable on another participant, an orphan recovery drops only
// while this shard's clock stays below it.
func (m *Manager) rebasePendingLocked() {
	m.commitChain = nil
	base := m.writePDT
	for i, r := range m.pending {
		folded, err := pdt.FoldSnap(base, r.serialized)
		if err != nil {
			werr := fmt.Errorf("txn: rebasing parked commit: %w", err)
			if m.maintErr == nil {
				m.maintErr = werr
			}
			m.failFromLocked(i, werr)
			return
		}
		r.folded = folded
		base = folded
	}
	if len(m.pending) > 0 {
		m.commitChain = base
	} else {
		m.pending = nil
	}
}

// maybeFoldLocked starts a background Write→Read fold once the Write-PDT
// outgrows its budget. Unlike the pre-online design it never waits for
// quiescence and never blocks the caller beyond the freeze. A waiting
// checkpointer gets priority — back-to-back folds re-arming here could
// otherwise keep m.frozen occupied forever under sustained traffic, and the
// checkpoint folds the write layer down anyway.
func (m *Manager) maybeFoldLocked() {
	if m.writePDT.MemBytes() < m.writeBudget ||
		m.frozen != nil || m.checkpointing || m.ckptWaiters > 0 ||
		m.inflight > 0 || m.maintErr != nil {
		return
	}
	go m.completeFold(m.cur, m.freezeLocked())
}

// completeFold folds the frozen write layer into a fresh Read-PDT off-lock
// and installs the result as the new version.
func (m *Manager) completeFold(base *version, frozen *pdt.PDT) {
	folded, err := pdt.FoldSnap(base.readPDT, frozen)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		// Every view keeps stacking the frozen layer, so reads stay correct;
		// maintenance is wedged and the error surfaces on the write paths.
		m.maintErr = fmt.Errorf("txn: background propagate: %w", err)
	} else {
		m.installVersionLocked(&version{store: base.store, readPDT: folded})
		m.frozen = nil
		m.maybeFoldLocked() // commits may have refilled the budget meanwhile
	}
	m.cond.Broadcast()
}

// installVersionLocked makes v the current read view and releases the
// previous one if no transaction still pins it.
func (m *Manager) installVersionLocked(v *version) {
	old := m.cur
	m.storeRefs[v.store]++
	m.cur = v
	m.releaseVersionLocked(old)
}

// releaseVersionLocked drops a version's claim on its stable image once it
// is retired (no longer current) and unpinned (no running transaction).
// When an image loses its last version it is closed right here: it releases
// its chain members, and each one no newer image shares leaves the buffer
// pool and closes its descriptor if it has one, so a long-running store does
// not accumulate one open fd per superseded segment until Close. Readers
// that need the image to stay readable pin it through a transaction.
func (m *Manager) releaseVersionLocked(v *version) {
	if v == m.cur || v.refs > 0 {
		return
	}
	m.storeRefs[v.store]--
	if m.storeRefs[v.store] == 0 {
		delete(m.storeRefs, v.store)
		// Store.Close evicts a member's pool entries before closing it, so a
		// stale hit cannot outlive the file.
		_ = v.store.Close()
	}
}

// Close closes every stable image the manager still holds: the current one
// and each retired one a running transaction pins. Callers stop using the
// manager first (DB.Close waits out maintenance); a transaction that
// finishes afterwards finds its image closed already, and closing twice is
// harmless.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	for s := range m.storeRefs {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WaitMaintenance blocks until no background fold or checkpoint is in
// flight, reporting any maintenance failure. Tests and orderly shutdown use
// it; normal operation never has to.
func (m *Manager) WaitMaintenance() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for (m.frozen != nil || m.checkpointing) && m.maintErr == nil {
		m.cond.Wait()
	}
	return m.maintErr
}

// Checkpoint folds all committed state (Read- and Write-PDT) into a new
// stable image while transactions keep running: the current write layer is
// frozen, the frozen view is folded and streamed into a fresh colstore image
// with no lock held — commits land in a fresh delta layer stacked on top —
// and the store swap installs that side layer as the new version's Read-PDT.
// Transactions begun before or during the checkpoint read their pinned
// pre-checkpoint view to completion and may still commit afterwards.
func (m *Manager) Checkpoint() error {
	return m.CheckpointInto(func(_ uint64, store *colstore.Store, deltas ...*pdt.PDT) (*colstore.Store, error) {
		return table.Materialize(store, deltas...)
	})
}

// CheckpointInto is Checkpoint with the caller's image build in place of the
// in-memory table.Materialize: a durable store passes a build that streams into
// a new on-disk segment generation and uses the freeze LSN as the
// generation's WAL position.
func (m *Manager) CheckpointInto(build MaterializeFn) error {
	m.mu.Lock()
	m.ckptWaiters++ // pauses fold re-arming so the wait below terminates
	for (m.checkpointing || m.frozen != nil || m.inflight > 0) && m.maintErr == nil {
		m.cond.Wait() // one maintenance operation at a time, between flush rounds
	}
	m.ckptWaiters--
	if err := m.maintErr; err != nil {
		m.mu.Unlock()
		return err
	}
	m.checkpointing = true
	base := m.cur
	freezeLSN := m.lsn // every commit <= this is in (base ∘ read ∘ frozen)
	frozen := m.freezeLocked()
	// The commit leader yields round boundaries while a checkpointer waits;
	// wake it now that the freeze is done — commits flow during the build.
	m.cond.Broadcast()
	m.mu.Unlock()

	// Off-lock: stream the full committed delta state (base ∘ Read ∘ frozen
	// Write, merged on the fly) into a new stable image. The new image
	// materializes exactly that view, so the Write-PDT filling up meanwhile
	// is already positioned in the new image's SID domain.
	newStore, err := build(freezeLSN, base.store, base.readPDT, frozen)

	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.cond.Broadcast()
	// The swap (or rollback) replaces the write layer, so it must not race a
	// group-commit round, whose records are already on their way to the WAL
	// with folds chained onto the current layer — a cross-shard member
	// included, until every participant has made it durable: signal the
	// leader to pause at its next boundary and wait out the round.
	m.ckptInstalling = true
	m.cond.Broadcast()
	for m.inflight > 0 {
		m.cond.Wait()
	}
	m.ckptInstalling = false
	m.checkpointing = false
	if err != nil {
		// Roll the frozen layer back under the write layer so the two-layer
		// invariant holds again (reads were never wrong either way).
		restored, ferr := pdt.FoldSnap(frozen, m.writePDT)
		if ferr != nil {
			m.maintErr = fmt.Errorf("txn: checkpoint rollback: %w", ferr)
			return err
		}
		m.writePDT = restored
		m.frozen = nil
		m.snapCache = nil
		m.rebasePendingLocked()
		return err
	}
	side := m.writePDT // commits that landed during the build
	m.writePDT = pdt.New(m.schema, pdt.DefaultFanout)
	m.snapCache = nil
	m.frozen = nil
	m.rebasePendingLocked()
	m.installVersionLocked(&version{store: newStore, readPDT: side})
	return nil
}
