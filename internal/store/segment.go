package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/huffduff/huffduff/internal/obs"
)

// The segment backend is an append-only log of framed records under one
// directory:
//
//	seg-<firstLSN>.log    frames: u32 length | u32 crc32(body) | JSON body
//	seg-<firstLSN>.idx    sidecar index, written when a segment seals
//
// Every record carries a monotone log sequence number (LSN); the latest LSN
// for a (kind, ID) pair wins, which is what makes compaction free to
// reorder files: supersedence is decided by LSN, never by file position.
// Appends go to a single active segment, fsync'd per record so an
// acknowledged record survives a crash, and rotate by size. Every open starts a fresh
// active segment, so a torn tail from a crash is never appended after — it
// is skipped and counted during recovery instead. Sealed segments get a
// sidecar index holding the indexed columns and frame offsets, so reopening
// a large store reads indexes, not payloads; a missing or stale sidecar
// falls back to a full frame scan that rewrites it.

// SegmentConfig tunes the segment-log store.
type SegmentConfig struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Only tests and benchmarks should
	// set it: without the fsync a crash can lose acknowledged records.
	NoSync bool
	// CompactAfter triggers background compaction once that many sealed
	// segments accumulate (default 6; negative disables compaction).
	CompactAfter int
	// Obs receives the store.* counters, gauges, and read-latency
	// histograms.
	Obs obs.Recorder

	// compactHook, when set, is called at named stages of a compaction
	// pass; returning false aborts the pass there, simulating a crash
	// mid-compaction. Test-only.
	compactHook func(stage string) bool
}

func (cfg SegmentConfig) withDefaults() SegmentConfig {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.CompactAfter == 0 {
		cfg.CompactAfter = 6
	}
	return cfg
}

// Record kinds in the segment log.
const (
	kindCampaign = "campaign"
	kindEvents   = "events"
)

// segRecord is one framed log record.
type segRecord struct {
	LSN      uint64          `json:"lsn"`
	Kind     string          `json:"kind"`
	Campaign *CampaignRecord `json:"campaign,omitempty"`
	Events   *EventBatch     `json:"events,omitempty"`
}

// frameHeaderLen is the fixed frame prefix: u32 body length, u32 CRC32.
const frameHeaderLen = 8

// maxFrameBody caps a single record body; anything larger during recovery
// is treated as a torn length word, not an allocation request.
const maxFrameBody = 64 << 20

// segmentInfo is one on-disk segment file.
type segmentInfo struct {
	path     string
	firstLSN uint64
	f        *os.File
	size     int64
	records  int
}

// recLoc locates one live record: its frame in a segment plus — for
// campaign records — the indexed columns, kept in memory so every query
// path filters and aggregates without touching payload bytes on disk.
type recLoc struct {
	lsn  uint64
	kind string
	id   int // campaign ID (for event batches, the batch's CampaignID)
	seg  *segmentInfo
	off  int64
	n    int32
	// idx carries the campaign columns with Payload stripped (zero for
	// event batches, which are keyed by CampaignID alone).
	idx CampaignRecord
}

// Segment is the durable Store: an append-only segment log with sidecar
// indexes and background compaction. Safe for concurrent use.
type Segment struct {
	dir string
	cfg SegmentConfig

	mu sync.Mutex
	// closed is guarded by mu.
	closed bool
	// segs is guarded by mu; ascending firstLSN, last is the active segment.
	segs []*segmentInfo
	// activeW is guarded by mu; the append handle of the active segment.
	activeW *os.File
	// nextLSN is guarded by mu.
	nextLSN uint64
	// byID is guarded by mu.
	byID map[int]*recLoc
	// evByID is guarded by mu.
	evByID map[int]*recLoc
	// stats is guarded by mu.
	stats Stats

	compactCh chan struct{}
	wg        sync.WaitGroup
}

// Open opens (creating if needed) a segment store in dir: existing segments
// are recovered — from their sidecar indexes when valid, by frame scan
// otherwise, with any torn tail skipped and counted — and a fresh active
// segment is started for this process's appends.
func Open(dir string, cfg SegmentConfig) (*Segment, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: dir: %w", err)
	}
	s := &Segment{
		dir:    dir,
		cfg:    cfg,
		byID:   map[int]*recLoc{},
		evByID: map[int]*recLoc{},
	}
	if err := s.removeLeftovers(); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: glob: %w", err)
	}
	sort.Strings(paths)
	s.nextLSN = 1
	for _, path := range paths {
		if err := s.loadSegment(path); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if err := s.openActiveLocked(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.publishGauges()
	if s.stats.TornRecords > 0 {
		s.count("store.torn_records", "", float64(s.stats.TornRecords))
	}
	if cfg.CompactAfter > 0 {
		s.compactCh = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.compactor()
		s.mu.Lock()
		s.signalCompactLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// removeLeftovers deletes artifacts an interrupted compaction can leave: a
// merged segment that never got renamed (*.log.tmp), temporary sidecars,
// and sidecars whose segment is gone.
func (s *Segment) removeLeftovers() error {
	for _, pat := range []string{"seg-*.log.tmp", "seg-*.idx.tmp"} {
		tmps, err := filepath.Glob(filepath.Join(s.dir, pat))
		if err != nil {
			return fmt.Errorf("store: glob: %w", err)
		}
		for _, p := range tmps {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("store: removing leftover %s: %w", p, err)
			}
		}
	}
	idxs, err := filepath.Glob(filepath.Join(s.dir, "seg-*.idx"))
	if err != nil {
		return fmt.Errorf("store: glob: %w", err)
	}
	for _, p := range idxs {
		log := strings.TrimSuffix(p, ".idx") + ".log"
		if _, statErr := os.Stat(log); os.IsNotExist(statErr) {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("store: removing orphan index %s: %w", p, err)
			}
		}
	}
	return nil
}

// loadSegment recovers one sealed segment: sidecar index when valid, frame
// scan (rewriting the sidecar) otherwise.
func (s *Segment) loadSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment %s: %w", path, err)
	}
	if fi.Size() == 0 {
		// An empty active segment from a previous open that never appended;
		// drop it rather than let one accumulate per restart.
		f.Close()
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: removing empty segment %s: %w", path, err)
		}
		os.Remove(strings.TrimSuffix(path, ".log") + ".idx")
		return nil
	}
	seg := &segmentInfo{path: path, f: f, size: fi.Size()}
	entries, ok := s.loadSidecar(path, fi.Size())
	if !ok {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Close()
			return fmt.Errorf("store: segment %s: %w", path, err)
		}
		var torn uint64
		entries, torn = scanFrames(raw)
		s.stats.TornRecords += torn
	}
	if len(entries) == 0 {
		// Nothing recoverable — e.g. a crash tore the very first append to a
		// fresh active segment. A torn frame was never acknowledged, and a
		// zero-entry segment contributes no LSNs, so keeping it would let
		// openActiveLocked reuse its name: O_APPEND would land new frames
		// after the torn bytes while offsets count from zero. Drop it like
		// the empty-segment case.
		f.Close()
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: removing unrecoverable segment %s: %w", path, err)
		}
		os.Remove(strings.TrimSuffix(path, ".log") + ".idx")
		return nil
	}
	if !ok {
		// Recovery truncates the index at the torn tail; the bytes stay in
		// the file (segments are immutable) but are never referenced again
		// and vanish at the next compaction.
		s.writeSidecar(seg, entries)
	}
	seg.records = len(entries)
	for i := range entries {
		if entries[i].LSN >= s.nextLSN {
			s.nextLSN = entries[i].LSN + 1
		}
		if seg.firstLSN == 0 || entries[i].LSN < seg.firstLSN {
			seg.firstLSN = entries[i].LSN
		}
		s.indexEntry(entries[i], seg)
	}
	s.segs = append(s.segs, seg)
	return nil
}

// sidecar is the on-disk sidecar index of a sealed segment: the indexed
// columns and frame offsets of every record, without payloads.
type sidecar struct {
	Bytes   int64      `json:"bytes"` // log size at seal; stale if mismatched
	Entries []idxEntry `json:"entries"`
}

// idxEntry is one record's index row.
type idxEntry struct {
	LSN  uint64 `json:"lsn"`
	Kind string `json:"kind"`
	Off  int64  `json:"off"`
	N    int32  `json:"n"`
	// Campaign columns (zero-valued for event batches, whose ID is the
	// batch's CampaignID).
	ID          int     `json:"id"`
	Model       string  `json:"model,omitempty"`
	State       string  `json:"state,omitempty"`
	FinishedNS  int64   `json:"finished_ns,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	Queries     int64   `json:"queries,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
}

// entryOf builds the index row for a framed record.
func entryOf(rec segRecord, off int64, n int32) idxEntry {
	e := idxEntry{LSN: rec.LSN, Kind: rec.Kind, Off: off, N: n}
	switch {
	case rec.Kind == kindCampaign && rec.Campaign != nil:
		c := rec.Campaign
		e.ID, e.Model, e.State = c.ID, c.Model, c.State
		e.FinishedNS, e.WallSeconds = c.FinishedNS, c.WallSeconds
		e.Queries, e.Degraded = c.Queries, c.Degraded
	case rec.Kind == kindEvents && rec.Events != nil:
		e.ID = rec.Events.CampaignID
	}
	return e
}

// loadSidecar reads a segment's sidecar index; ok is false (forcing a
// rescan) when the sidecar is missing, unreadable, or stale — its recorded
// log size no longer matches the file, as after an interrupted compaction.
func (s *Segment) loadSidecar(logPath string, logSize int64) ([]idxEntry, bool) {
	raw, err := os.ReadFile(strings.TrimSuffix(logPath, ".log") + ".idx")
	if err != nil {
		return nil, false
	}
	var sc sidecar
	if err := json.Unmarshal(raw, &sc); err != nil || sc.Bytes != logSize {
		return nil, false
	}
	return sc.Entries, true
}

// writeSidecar persists a segment's index atomically (tmp + fsync +
// rename). A failure is swallowed: the sidecar is an optimization, and the
// next open simply rescans the frames. The fsync before the rename matters
// even so — without it a crash can publish a torn sidecar under the final
// name, and a torn sidecar whose Bytes field happens to survive intact
// would misdirect recovery instead of falling back to the frame scan.
func (s *Segment) writeSidecar(seg *segmentInfo, entries []idxEntry) {
	raw, err := json.Marshal(sidecar{Bytes: seg.size, Entries: entries})
	if err != nil {
		return
	}
	idxPath := strings.TrimSuffix(seg.path, ".log") + ".idx"
	tmp := idxPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if !s.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, idxPath); err != nil {
		os.Remove(tmp)
	}
}

// scanFrames decodes every intact frame in raw, stopping at the first torn
// one. The return counts how many unreadable tails were skipped (0 or 1 per
// scan: a torn frame ends the scan, because nothing after an interrupted
// write can be trusted).
func scanFrames(raw []byte) (entries []idxEntry, torn uint64) {
	var off int64
	for int64(len(raw))-off >= frameHeaderLen {
		rec, n, ok := decodeFrame(raw[off:])
		if !ok {
			torn++
			break
		}
		entries = append(entries, entryOf(rec, off, n))
		off += int64(n)
	}
	if t := int64(len(raw)) - off; t > 0 && torn == 0 {
		// Trailing bytes too short for a header: a torn header word.
		torn++
	}
	return entries, torn
}

// decodeFrame decodes one frame from the head of raw, returning the record
// and the full frame length. ok is false for a torn or corrupt frame.
func decodeFrame(raw []byte) (rec segRecord, n int32, ok bool) {
	if len(raw) < frameHeaderLen {
		return rec, 0, false
	}
	bodyLen := binary.LittleEndian.Uint32(raw[0:4])
	if bodyLen == 0 || bodyLen > maxFrameBody || int64(bodyLen) > int64(len(raw)-frameHeaderLen) {
		return rec, 0, false
	}
	body := raw[frameHeaderLen : frameHeaderLen+int(bodyLen)]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[4:8]) {
		return rec, 0, false
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, 0, false
	}
	if rec.Kind != kindCampaign && rec.Kind != kindEvents {
		return rec, 0, false
	}
	return rec, int32(frameHeaderLen + int(bodyLen)), true
}

// encodeFrame frames one record body.
func encodeFrame(body []byte) []byte {
	out := make([]byte, frameHeaderLen+len(body))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	copy(out[frameHeaderLen:], body)
	return out
}

// indexEntry folds one index row into the live tables; the highest LSN for
// a (kind, ID) pair wins.
func (s *Segment) indexEntry(e idxEntry, seg *segmentInfo) {
	loc := &recLoc{lsn: e.LSN, kind: e.Kind, id: e.ID, seg: seg, off: e.Off, n: e.N}
	table := s.byID
	if e.Kind == kindEvents {
		table = s.evByID
	} else {
		loc.idx = CampaignRecord{
			ID: e.ID, Model: e.Model, State: e.State,
			FinishedNS: e.FinishedNS, WallSeconds: e.WallSeconds,
			Queries: e.Queries, Degraded: e.Degraded,
		}
	}
	if cur, ok := table[e.ID]; !ok || loc.lsn >= cur.lsn {
		table[e.ID] = loc
	}
}

// openActiveLocked starts a fresh active segment named by the next LSN.
// O_EXCL guarantees the file is truly fresh: appending to an existing file
// would land frames after its bytes while size-derived offsets count from
// zero. A name collision (only unregistered leftovers can collide — every
// loaded segment's name is below nextLSN) just advances the LSN; gaps are
// harmless, supersedence only needs monotonicity.
func (s *Segment) openActiveLocked() error {
	var (
		path string
		f    *os.File
	)
	for {
		path = filepath.Join(s.dir, fmt.Sprintf("seg-%016d.log", s.nextLSN))
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			break
		}
		if os.IsExist(err) {
			s.nextLSN++
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
	s.segs = append(s.segs, &segmentInfo{path: path, firstLSN: s.nextLSN, f: rf, size: 0})
	s.activeW = f
	return nil
}

// PutCampaign appends one campaign record durably.
func (s *Segment) PutCampaign(rec CampaignRecord) error {
	return s.append(segRecord{Kind: kindCampaign, Campaign: &rec})
}

// PutEvents appends one event batch durably.
func (s *Segment) PutEvents(batch EventBatch) error {
	return s.append(segRecord{Kind: kindEvents, Events: &batch})
}

// append frames, writes, fsyncs, and indexes one record, rotating the
// active segment by size.
func (s *Segment) append(rec segRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.activeW == nil {
		// A failed append sealed the active segment but could not open a
		// fresh one; retry before accepting the record.
		if err := s.openActiveLocked(); err != nil {
			return err
		}
	}
	rec.LSN = s.nextLSN
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	frame := encodeFrame(body)
	active := s.segs[len(s.segs)-1]
	if _, err := s.activeW.Write(frame); err != nil {
		s.failActiveLocked()
		return fmt.Errorf("store: append: %w", err)
	}
	if !s.cfg.NoSync {
		if err := s.activeW.Sync(); err != nil {
			s.failActiveLocked()
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	off := active.size
	active.size += int64(len(frame))
	active.records++
	s.indexEntry(entryOf(rec, off, int32(len(frame))), active)
	s.nextLSN++
	s.stats.Appends++
	s.stats.AppendBytes += uint64(len(frame))
	s.count("store.appends", "kind="+rec.Kind, 1)
	s.count("store.append_bytes", "", float64(len(frame)))
	if active.size >= s.cfg.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.publishGauges()
	return nil
}

// failActiveLocked recovers from a failed write or fsync on the active
// segment. The file may now hold bytes past the indexed region — a partial
// frame, or (a fsync failure) a whole unacknowledged one — so offsets
// derived from active.size arithmetic can no longer be trusted, and any
// frame appended after them would be unreachable at recovery, whose scan
// stops at the first torn frame. Reconcile the in-memory size with the
// file, consume the LSN the frame carried (it may be durable), and seal the
// segment — its sidecar covers the valid prefix — moving appends to a
// fresh file.
func (s *Segment) failActiveLocked() {
	active := s.segs[len(s.segs)-1]
	fi, statErr := s.activeW.Stat()
	if statErr == nil && fi.Size() == active.size {
		return // no bytes landed; offsets and LSN remain consistent
	}
	s.nextLSN++
	if statErr == nil {
		active.size = fi.Size()
	}
	// When stat itself failed, active.size stays stale, the sealed sidecar
	// records a mismatched size, and the next open falls back to a frame
	// scan — still correct, just slower.
	s.activeW.Close()
	s.activeW = nil
	s.writeSidecar(active, s.entriesOf(active))
	if err := s.openActiveLocked(); err != nil {
		// activeW stays nil; the next append retries the reopen.
		s.count("store.append_errors", "op=rotate", 1)
	}
}

// rotateLocked seals the active segment (sidecar written, write handle
// closed) and opens a fresh one, then wakes the compactor if enough sealed
// segments have piled up.
func (s *Segment) rotateLocked() error {
	active := s.segs[len(s.segs)-1]
	if err := s.activeW.Close(); err != nil {
		return fmt.Errorf("store: sealing %s: %w", active.path, err)
	}
	s.activeW = nil
	s.writeSidecar(active, s.entriesOf(active))
	if err := s.openActiveLocked(); err != nil {
		return err
	}
	s.signalCompactLocked()
	return nil
}

// entriesOf rebuilds a segment's index rows from the live tables plus a
// frame scan for superseded records. Sealing happens at rotation, where the
// whole segment was just written by this process, so the scan reads warm
// cache; the sidecar must cover *all* frames (compaction decides liveness
// later, at merge time).
func (s *Segment) entriesOf(seg *segmentInfo) []idxEntry {
	raw, err := os.ReadFile(seg.path)
	if err != nil {
		return nil
	}
	entries, _ := scanFrames(raw)
	return entries
}

// Campaign returns one campaign record by ID (payload included).
func (s *Segment) Campaign(id int) (CampaignRecord, bool, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CampaignRecord{}, false, ErrClosed
	}
	loc, ok := s.byID[id]
	if !ok {
		return CampaignRecord{}, false, nil
	}
	rec, err := s.readLocked(loc)
	if err != nil {
		return CampaignRecord{}, false, err
	}
	if rec.Campaign == nil {
		return CampaignRecord{}, false, fmt.Errorf("store: campaign %d: record kind %q", id, rec.Kind)
	}
	s.observe("store.read_seconds", "op=lookup", time.Since(start).Seconds())
	return *rec.Campaign, true, nil
}

// Campaigns lists matching records ascending by ID. Filtering and
// pagination run over the in-memory index columns; only the returned page's
// payloads are read from disk.
func (s *Segment) Campaigns(q Query) ([]CampaignRecord, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	locs := make([]*recLoc, 0, len(s.byID))
	for _, loc := range s.byID {
		if q.Match(loc.idx) {
			locs = append(locs, loc)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].idx.ID < locs[j].idx.ID })
	if q.Offset > 0 {
		if q.Offset >= len(locs) {
			locs = nil
		} else {
			locs = locs[q.Offset:]
		}
	}
	if q.Limit > 0 && q.Limit < len(locs) {
		locs = locs[:q.Limit]
	}
	out := make([]CampaignRecord, 0, len(locs))
	for _, loc := range locs {
		rec, err := s.readLocked(loc)
		if err != nil {
			return nil, err
		}
		if rec.Campaign != nil {
			out = append(out, *rec.Campaign)
		}
	}
	s.observe("store.read_seconds", "op=scan", time.Since(start).Seconds())
	return out, nil
}

// AggregateByModel folds the history into per-model aggregates straight
// from the in-memory index columns — no disk reads at all.
func (s *Segment) AggregateByModel() ([]ModelAggregate, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	recs := make([]CampaignRecord, 0, len(s.byID))
	for _, loc := range s.byID {
		recs = append(recs, loc.idx)
	}
	sortByID(recs)
	out := aggregateRecords(recs)
	s.observe("store.read_seconds", "op=aggregate", time.Since(start).Seconds())
	return out, nil
}

// Events returns the stored event batch for one campaign.
func (s *Segment) Events(campaignID int) (EventBatch, bool, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return EventBatch{}, false, ErrClosed
	}
	loc, ok := s.evByID[campaignID]
	if !ok {
		return EventBatch{}, false, nil
	}
	rec, err := s.readLocked(loc)
	if err != nil {
		return EventBatch{}, false, err
	}
	if rec.Events == nil {
		return EventBatch{}, false, fmt.Errorf("store: events %d: record kind %q", campaignID, rec.Kind)
	}
	s.observe("store.read_seconds", "op=lookup", time.Since(start).Seconds())
	return *rec.Events, true, nil
}

// readLocked reads and decodes one frame. Callers hold s.mu, which keeps
// the segment set stable under compaction; the frame region itself is
// immutable once indexed.
func (s *Segment) readLocked(loc *recLoc) (segRecord, error) {
	buf := make([]byte, loc.n)
	if _, err := loc.seg.f.ReadAt(buf, loc.off); err != nil {
		return segRecord{}, fmt.Errorf("store: read %s@%d: %w", loc.seg.path, loc.off, err)
	}
	rec, _, ok := decodeFrame(buf)
	if !ok {
		return segRecord{}, fmt.Errorf("store: read %s@%d: corrupt frame", loc.seg.path, loc.off)
	}
	return rec, nil
}

// Stats reports the store's counters.
func (s *Segment) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Segment) statsLocked() Stats {
	st := s.stats
	st.Records = len(s.byID)
	st.EventBatches = len(s.evByID)
	st.Segments = len(s.segs)
	for _, seg := range s.segs {
		st.LiveBytes += seg.size
	}
	return st
}

// Close seals the active segment (sidecar included, so the next open reads
// indexes only), stops the compactor, and closes every file handle.
func (s *Segment) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.compactCh != nil {
		close(s.compactCh)
	}
	var sealErr error
	if s.activeW != nil {
		active := s.segs[len(s.segs)-1]
		if err := s.activeW.Close(); err != nil {
			sealErr = fmt.Errorf("store: close %s: %w", active.path, err)
		} else {
			s.writeSidecar(active, s.entriesOf(active))
		}
		s.activeW = nil
	}
	s.closeFiles()
	s.mu.Unlock()
	s.wg.Wait()
	return sealErr
}

// closeFiles closes every read handle. Callers hold s.mu or have exclusive
// access (a failed Open).
func (s *Segment) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
}

// publishGauges refreshes the store.* gauges. Callers hold s.mu; Recorder
// implementations take their own locks and never call back into the store.
func (s *Segment) publishGauges() {
	if s.cfg.Obs == nil {
		return
	}
	st := s.statsLocked()
	s.cfg.Obs.Gauge("store.records", "", float64(st.Records))
	s.cfg.Obs.Gauge("store.segments", "", float64(st.Segments))
	s.cfg.Obs.Gauge("store.live_bytes", "", float64(st.LiveBytes))
}

func (s *Segment) count(name, label string, v float64) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Count(name, label, v)
	}
}

func (s *Segment) observe(name, label string, v float64) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Observe(name, label, v)
	}
}
