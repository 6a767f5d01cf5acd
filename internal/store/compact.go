package store

// Compaction folds the sealed segments into one: live records (the highest
// LSN per campaign ID) are copied frame-verbatim into a merged segment,
// superseded records are dropped, and the inputs are deleted. Supersedence
// is decided by LSN, so the merged segment keeps the original LSNs and the
// recovery fold stays correct no matter how a crash interleaves with the
// pass. The crash discipline, in order:
//
//  1. write the merged log, sealed, to seg-<firstLSN>.log.tmp and fsync it
//  2. rename the merged log over the first input (atomic)
//  3. reopen the merged log (while the input handles still serve reads)
//  4. delete the remaining inputs
//
// A crash before (2) leaves only a .tmp, removed at the next open. A crash
// between (2) and (4) leaves the merged log plus stale inputs whose records
// are duplicates of merged LSNs — the recovery fold dedupes them.

import (
	"fmt"
	"os"
	"sort"
)

// compactor is the background compaction loop: one pass per wake-up signal
// from rotation (or Open), serialized by the loop itself.
func (l *Log) compactor() {
	defer l.wg.Done()
	for range l.compactCh {
		if err := l.Compact(); err != nil && err != errClosed {
			l.count("store.compaction_errors", "", 1)
		}
	}
}

// signalCompactLocked wakes the compactor when enough sealed segments have
// accumulated. Callers hold l.mu.
func (l *Log) signalCompactLocked() {
	if l.compactCh == nil || l.closed {
		return
	}
	if len(l.segs)-1 < l.cfg.CompactAfter {
		return
	}
	select {
	case l.compactCh <- struct{}{}:
	default: // a pass is already pending
	}
}

// Compact merges every sealed segment into one, dropping superseded
// records. It is a no-op with fewer than two sealed segments unless the one
// sealed segment carries dead records. The pass holds the log's lock: at
// the segment sizes compaction targets this is milliseconds, and it keeps
// every read and the index swap trivially consistent.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	inputs := l.segs[:len(l.segs)-1] // all sealed; the last is active
	if len(inputs) == 0 {
		return nil
	}
	live := l.liveIn(inputs)
	totalRecords := 0
	for _, seg := range inputs {
		totalRecords += seg.records
	}
	if len(inputs) < 2 && totalRecords == len(live) {
		return nil // single sealed segment, nothing dead: nothing to gain
	}
	dropped := uint64(totalRecords - len(live))

	merged, entries, err := l.writeMerged(inputs[0].firstLSN, live)
	if err != nil {
		return err
	}
	if !l.hook("merged-written") {
		return nil // simulated crash: .tmp cleaned up at next open
	}
	if err := os.Rename(merged.path+".tmp", merged.path); err != nil {
		return fmt.Errorf("store: compaction rename: %w", err)
	}
	if !l.hook("renamed") {
		return nil // simulated crash: stale inputs dedupe by LSN at next open
	}
	// Reopen the merged segment before touching the inputs: if this open
	// fails, the in-memory state still points at the input segments, whose
	// open handles keep serving reads (the renamed-over first input's fd
	// pins its old inode), and the next open dedupes the stale inputs by
	// LSN. Destroying the inputs first would leave every index entry
	// referencing a closed handle.
	f, err := os.Open(merged.path)
	if err != nil {
		return fmt.Errorf("store: reopening merged segment: %w", err)
	}
	if !l.hook("reopened") {
		f.Close()
		return nil // simulated crash: merged log live, stale inputs dedupe
	}
	for _, seg := range inputs {
		seg.f.Close()
		if seg.path != merged.path {
			os.Remove(seg.path)
		}
	}
	merged.f = f
	active := l.segs[len(l.segs)-1]
	l.segs = []*segment{merged, active}
	for _, e := range entries {
		l.indexLocked(e)
	}
	l.stats.Compactions++
	l.stats.CompactedRecords += dropped
	l.count("store.compactions", "", 1)
	l.count("store.compacted_records", "", float64(dropped))
	l.publishGauges()
	return nil
}

// liveIn returns the live records located in the given segments, ascending
// LSN (the order the merged segment preserves).
func (l *Log) liveIn(inputs []*segment) []*entry {
	in := map[*segment]bool{}
	for _, seg := range inputs {
		in[seg] = true
	}
	var live []*entry
	for _, e := range l.byID {
		if in[e.seg] {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].lsn < live[j].lsn })
	return live
}

// writeMerged copies the live frames verbatim into <firstLSN>.log.tmp,
// seals and fsyncs it, and returns the (not yet renamed) segment plus the
// index entries of its frames.
func (l *Log) writeMerged(firstLSN uint64, live []*entry) (*segment, []entry, error) {
	merged := &segment{
		path:     l.segPath(firstLSN),
		firstLSN: firstLSN,
		records:  len(live),
	}
	f, err := os.OpenFile(merged.path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: compaction tmp: %w", err)
	}
	defer f.Close()
	entries := make([]entry, 0, len(live))
	for _, e := range live {
		buf := make([]byte, e.n)
		if _, err := e.seg.f.ReadAt(buf, e.off); err != nil {
			return nil, nil, fmt.Errorf("store: compaction read %s@%d: %w", e.seg.path, e.off, err)
		}
		if _, err := f.Write(buf); err != nil {
			return nil, nil, fmt.Errorf("store: compaction write: %w", err)
		}
		entries = append(entries, entry{lsn: e.lsn, kind: e.kind, id: e.id, seg: merged, off: merged.size, n: e.n})
		merged.size += int64(e.n)
	}
	if _, err := f.Write(trailer(merged.size)); err != nil {
		return nil, nil, fmt.Errorf("store: compaction write: %w", err)
	}
	if !l.cfg.NoSync {
		if err := f.Sync(); err != nil {
			return nil, nil, fmt.Errorf("store: compaction fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("store: compaction close: %w", err)
	}
	return merged, entries, nil
}

// hook runs the test-only compaction crash hook; true means keep going.
func (l *Log) hook(stage string) bool {
	if l.cfg.compactHook == nil {
		return true
	}
	return l.cfg.compactHook(stage)
}
