package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// segment is one on-disk segment file.
type segment struct {
	path     string
	firstLSN uint64
	f        *os.File
	// size counts the frame bytes the segment holds (its trailer excluded).
	size int64
	// records counts its intact frames, live or superseded.
	records int
}

// Log is the durable campaign log: an append-only segment log with
// background compaction. Safe for concurrent use.
type Log struct {
	dir string
	cfg Config

	mu sync.Mutex
	// closed is guarded by mu.
	closed bool
	// segs is guarded by mu; ascending firstLSN, last is the active segment.
	segs []*segment
	// activeW is guarded by mu; the append handle of the active segment.
	activeW *os.File
	// nextLSN is guarded by mu.
	nextLSN uint64
	// byID is guarded by mu.
	byID map[int]*entry
	// stats is guarded by mu.
	stats Stats

	compactCh chan struct{}
	wg        sync.WaitGroup
}

// Open opens (creating if needed) a log in dir: every existing segment is
// scanned — a torn tail in an unsealed segment skipped and counted, a
// corrupt frame in a sealed one an error naming the segment and offset —
// and a fresh active segment is started for this process's appends.
func Open(dir string, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: dir: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg, byID: map[int]*entry{}, nextLSN: 1}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: glob: %w", err)
	}
	sort.Strings(paths)
	// Recover every segment before touching the directory, so an Open that
	// fails has written and removed nothing.
	var drop []string
	for _, path := range paths {
		seg, err := l.loadSegment(path)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		if seg == nil {
			drop = append(drop, path)
			continue
		}
		l.segs = append(l.segs, seg)
	}
	// An interrupted compaction leaves a *.tmp that never got renamed;
	// *.idx sidecar indexes and events-*.json flight-recorder tails are
	// files older builds wrote, which nothing reads.
	for _, pat := range []string{"*.tmp", "seg-*.idx", "events-*.json"} {
		leftovers, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("store: glob: %w", err)
		}
		drop = append(drop, leftovers...)
	}
	for _, p := range drop {
		if err := os.Remove(p); err != nil {
			l.closeFiles()
			return nil, fmt.Errorf("store: removing %s: %w", p, err)
		}
	}
	if err := l.openActiveLocked(); err != nil {
		l.closeFiles()
		return nil, err
	}
	l.publishGauges()
	if l.stats.TornRecords > 0 {
		l.count("store.torn_records", "", float64(l.stats.TornRecords))
	}
	if cfg.CompactAfter > 0 {
		l.compactCh = make(chan struct{}, 1)
		l.wg.Add(1)
		go l.compactor()
		l.mu.Lock()
		l.signalCompactLocked()
		l.mu.Unlock()
	}
	return l, nil
}

// loadSegment recovers one segment and indexes its campaign records. It
// returns nil, and Open removes the file, when nothing in it is
// recoverable.
func (l *Log) loadSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	entries, torn, err := recoverFrames(raw)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: segment %s: %w", path, err)
	}
	// A torn tail's bytes stay in the file (segments are immutable) but are
	// never referenced again, and vanish at the next compaction.
	l.stats.TornRecords += torn
	if len(entries) == 0 {
		// An empty active segment from a previous open that never appended:
		// drop it rather than let one accumulate per restart. Likewise a
		// segment whose only content is torn — a crash tore the very first
		// append to a fresh active segment. A torn frame was never
		// acknowledged, and a zero-entry segment contributes no LSNs, so
		// keeping it would let openActiveLocked reuse its name: O_APPEND
		// would land new frames after the torn bytes while offsets count
		// from zero.
		f.Close()
		return nil, nil
	}
	seg := &segment{path: path, f: f, records: len(entries)}
	for _, e := range entries {
		if e.lsn >= l.nextLSN {
			l.nextLSN = e.lsn + 1
		}
		if seg.firstLSN == 0 || e.lsn < seg.firstLSN {
			seg.firstLSN = e.lsn
		}
		seg.size = e.off + int64(e.n)
		e.seg = seg
		l.indexLocked(e)
	}
	return seg, nil
}

// indexLocked folds one intact frame into the index: the highest LSN per
// campaign ID wins. Frames of the retired events kind are never live.
func (l *Log) indexLocked(e entry) {
	if e.kind != kindCampaign {
		return
	}
	if cur, ok := l.byID[e.id]; !ok || e.lsn >= cur.lsn {
		l.byID[e.id] = &e
	}
}

// openActiveLocked starts a fresh active segment named by the next LSN.
// O_EXCL guarantees the file is truly fresh: appending to an existing file
// would land frames after its bytes while size-derived offsets count from
// zero. A name collision (only unregistered leftovers can collide — every
// loaded segment's name is below nextLSN) just advances the LSN; gaps are
// harmless, supersedence only needs monotonicity.
func (l *Log) openActiveLocked() error {
	var (
		path string
		f    *os.File
	)
	for {
		path = l.segPath(l.nextLSN)
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			break
		}
		if os.IsExist(err) {
			l.nextLSN++
			continue
		}
		return fmt.Errorf("store: segment %s: %w", path, err)
	}
	// Reads go through a separate handle so ReadAt never races the append
	// offset of the write handle.
	rf, err := os.Open(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment %s: %w", path, err)
	}
	l.segs = append(l.segs, &segment{path: path, firstLSN: l.nextLSN, f: rf})
	l.activeW = f
	return nil
}

// segPath names a segment file by its first LSN.
func (l *Log) segPath(firstLSN uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%016d.log", firstLSN))
}

// Put appends one campaign's payload durably, superseding any earlier one
// for the same ID. The payload must be JSON; Replay returns it compacted.
func (l *Log) Put(id int, payload json.RawMessage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if l.activeW == nil {
		// A failed append sealed the active segment but could not open a
		// fresh one; retry before accepting the record.
		if err := l.openActiveLocked(); err != nil {
			return err
		}
	}
	rec := frameRecord{LSN: l.nextLSN, Kind: kindCampaign, Campaign: &campaignRecord{ID: id, Payload: payload}}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode campaign %d: %w", id, err)
	}
	frame := encodeFrame(body)
	active := l.segs[len(l.segs)-1]
	if _, err := l.activeW.Write(frame); err != nil {
		l.failActiveLocked()
		return fmt.Errorf("store: append: %w", err)
	}
	if !l.cfg.NoSync {
		if err := l.activeW.Sync(); err != nil {
			l.failActiveLocked()
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	l.indexLocked(entry{lsn: rec.LSN, kind: kindCampaign, id: id, seg: active, off: active.size, n: int32(len(frame))})
	active.size += int64(len(frame))
	active.records++
	l.nextLSN++
	l.stats.Appends++
	l.stats.AppendBytes += uint64(len(frame))
	l.count("store.appends", "kind="+kindCampaign, 1)
	l.count("store.append_bytes", "", float64(len(frame)))
	if active.size >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.publishGauges()
	return nil
}

// failActiveLocked recovers from a failed write or fsync on the active
// segment. The file may now hold bytes past its acknowledged frames — a
// partial frame, or (a fsync failure) a whole unacknowledged one — and any
// frame appended after them would be unreachable at recovery, whose scan
// stops at the first torn frame. Consume the LSN the frame carried (it may
// be durable), seal the segment with a trailer covering only the
// acknowledged frames, and move appends to a fresh file.
func (l *Log) failActiveLocked() {
	active := l.segs[len(l.segs)-1]
	fi, statErr := l.activeW.Stat()
	if statErr == nil && fi.Size() == active.size {
		return // no bytes landed; offsets and LSN remain consistent
	}
	l.nextLSN++
	if err := l.sealLocked(); err != nil {
		l.count("store.append_errors", "op=seal", 1)
	}
	if err := l.openActiveLocked(); err != nil {
		// activeW stays nil; the next append retries the reopen.
		l.count("store.append_errors", "op=rotate", 1)
	}
}

// sealLocked ends the active segment with its trailer and closes the write
// handle. An empty segment gets no trailer: the next open removes it. A
// trailer that fails to land leaves the segment unsealed, which the next
// open scans as a crash tail, losing nothing acknowledged.
func (l *Log) sealLocked() error {
	active := l.segs[len(l.segs)-1]
	w := l.activeW
	l.activeW = nil
	if active.size > 0 {
		if _, err := w.Write(trailer(active.size)); err != nil {
			w.Close()
			return fmt.Errorf("store: sealing %s: %w", active.path, err)
		}
		if !l.cfg.NoSync {
			if err := w.Sync(); err != nil {
				w.Close()
				return fmt.Errorf("store: sealing %s: %w", active.path, err)
			}
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("store: sealing %s: %w", active.path, err)
	}
	return nil
}

// rotateLocked seals the active segment and opens a fresh one, then wakes
// the compactor if enough sealed segments have piled up.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	if err := l.openActiveLocked(); err != nil {
		return err
	}
	l.signalCompactLocked()
	return nil
}

// Replay calls fn with every campaign's latest payload, in ascending ID
// order, and stops at the first error fn returns. The payloads are read
// under the log's lock, and fn runs after it is released.
func (l *Log) Replay(fn func(id int, payload json.RawMessage) error) error {
	ids, payloads, err := l.latest()
	if err != nil {
		return err
	}
	for i, id := range ids {
		if err := fn(id, payloads[i]); err != nil {
			return err
		}
	}
	return nil
}

// latest reads every campaign's latest payload, in ascending ID order.
func (l *Log) latest() ([]int, []json.RawMessage, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, errClosed
	}
	ids := make([]int, 0, len(l.byID))
	for id := range l.byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	payloads := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		rec, err := l.readLocked(l.byID[id])
		if err != nil {
			return nil, nil, err
		}
		payloads[i] = rec.Campaign.Payload
	}
	return ids, payloads, nil
}

// readLocked reads and decodes one indexed campaign frame. Callers hold
// l.mu, which keeps the segment set stable under compaction; the frame
// region itself is immutable once indexed.
func (l *Log) readLocked(e *entry) (frameRecord, error) {
	buf := make([]byte, e.n)
	if _, err := e.seg.f.ReadAt(buf, e.off); err != nil {
		return frameRecord{}, fmt.Errorf("store: read %s@%d: %w", e.seg.path, e.off, err)
	}
	rec, _, ok := decodeFrame(buf)
	if !ok || rec.Campaign == nil {
		return frameRecord{}, fmt.Errorf("store: read %s@%d: corrupt frame", e.seg.path, e.off)
	}
	return rec, nil
}

// Stats reports the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.statsLocked()
}

func (l *Log) statsLocked() Stats {
	st := l.stats
	st.Records = len(l.byID)
	st.Segments = len(l.segs)
	for _, seg := range l.segs {
		st.LiveBytes += seg.size
	}
	return st
}

// Close seals the active segment, stops the compactor, and closes every
// file handle.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.compactCh != nil {
		close(l.compactCh)
	}
	var sealErr error
	if l.activeW != nil {
		sealErr = l.sealLocked()
	}
	l.closeFiles()
	l.mu.Unlock()
	l.wg.Wait()
	return sealErr
}

// closeFiles closes every read handle. Callers hold l.mu or have exclusive
// access (a failed Open).
func (l *Log) closeFiles() {
	for _, seg := range l.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
}

// publishGauges refreshes the store.* gauges. Callers hold l.mu; Recorder
// implementations take their own locks and never call back into the log.
func (l *Log) publishGauges() {
	if l.cfg.Obs == nil {
		return
	}
	st := l.statsLocked()
	l.cfg.Obs.Gauge("store.records", "", float64(st.Records))
	l.cfg.Obs.Gauge("store.segments", "", float64(st.Segments))
	l.cfg.Obs.Gauge("store.live_bytes", "", float64(st.LiveBytes))
}

func (l *Log) count(name, label string, v float64) {
	if l.cfg.Obs != nil {
		l.cfg.Obs.Count(name, label, v)
	}
}
