// Package store is huffduffd's durable campaign log: an embedded,
// stdlib-only, append-only segment log holding the latest payload per
// campaign — the daemon's full CampaignSnapshot JSON, written at every
// state transition. Records are fsync'd per append; recovery skips and
// counts a torn tail and refuses a corrupt sealed segment; background
// compaction drops superseded records and merges small segments. The
// daemon reads the log once, at start, with Replay.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/huffduff/huffduff/internal/obs"
)

// The log is one directory:
//
//	seg-<firstLSN>.log    frames: u32 length | u32 crc32(body) | JSON body,
//	                      then, once sealed, a trailer: magic | u64 frame bytes
//
// Every record carries a monotone log sequence number (LSN); the latest LSN
// for an ID wins, which is what makes compaction free to reorder files:
// supersedence is decided by LSN, never by file position. Appends go to a
// single active segment, fsync'd per record so an acknowledged record
// survives a crash, and rotate by size. Every open starts a fresh active
// segment, so a torn tail from a crash is never appended after — it is
// skipped and counted during recovery instead.
//
// Rotation, Close and compaction seal a segment with the trailer, which
// records where its acknowledged frames end. Every frame a trailer covers
// was acknowledged, so one that no longer decodes is corruption, and Open
// fails rather than silently drop an acknowledged record. A segment without
// a trailer is the shape a crash leaves; its scan stops at the first bad
// frame, which was never acknowledged.

// Config tunes the log.
type Config struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 1 MiB).
	SegmentBytes int64
	// NoSync skips the per-append fsync. Only tests and benchmarks should
	// set it: without the fsync a crash can lose acknowledged records.
	NoSync bool
	// CompactAfter triggers background compaction once that many sealed
	// segments accumulate (default 6; negative disables compaction).
	CompactAfter int
	// Obs receives the store.* counters and gauges.
	Obs obs.Recorder

	// compactHook, when set, is called at named stages of a compaction
	// pass; returning false aborts the pass there, simulating a crash
	// mid-compaction. Test-only.
	compactHook func(stage string) bool
}

func (cfg Config) withDefaults() Config {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.CompactAfter == 0 {
		cfg.CompactAfter = 6
	}
	return cfg
}

// Stats counts log activity. Append counters accumulate since open;
// Records/Segments/LiveBytes describe the current contents.
type Stats struct {
	// Records counts live (non-superseded) campaign records.
	Records int `json:"records"`
	// Appends and AppendBytes count accepted writes since open.
	Appends     uint64 `json:"appends"`
	AppendBytes uint64 `json:"append_bytes"`
	// Segments and LiveBytes describe the segment files: their count and
	// the frame bytes they hold.
	Segments  int   `json:"segments"`
	LiveBytes int64 `json:"live_bytes"`
	// Compactions counts completed compaction passes; CompactedRecords the
	// superseded records they dropped.
	Compactions      uint64 `json:"compactions"`
	CompactedRecords uint64 `json:"compacted_records"`
	// TornRecords counts unreadable frames skipped during recovery — the
	// torn tail a crash leaves, never fatal.
	TornRecords uint64 `json:"torn_records"`
}

// errClosed rejects operations on a closed log.
var errClosed = errors.New("store: closed")

// Record kinds in the segment log. A frame of the retired events kind,
// left by an older build, is intact but dead, and compaction drops it.
const (
	kindCampaign = "campaign"
	kindEvents   = "events"
)

// frameRecord is one framed log record. The campaign object keeps the
// shape older builds wrote, whose extra filter columns decoding ignores, so
// their logs replay under the same IDs.
type frameRecord struct {
	LSN      uint64          `json:"lsn"`
	Kind     string          `json:"kind"`
	Campaign *campaignRecord `json:"campaign,omitempty"`
}

// campaignRecord is one campaign state: its ID and the writer's payload,
// stored and returned verbatim.
type campaignRecord struct {
	ID      int             `json:"id"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// frameHeaderLen is the fixed frame prefix: u32 body length, u32 CRC32.
const frameHeaderLen = 8

// maxFrameBody caps a single record body; anything larger during recovery
// is treated as a torn length word, not an allocation request.
const maxFrameBody = 64 << 20

// trailerMagic opens the trailer that seals a segment. trailerLen is the
// magic plus the u64 count of frame bytes the trailer covers.
var trailerMagic = []byte("hdseal\x00\x01")

const trailerLen = 16

// entry is one intact frame as recovery finds it; the index keeps each
// campaign's latest entry.
type entry struct {
	lsn  uint64
	kind string
	id   int
	seg  *segment
	off  int64
	n    int32
}

// encodeFrame frames one record body.
func encodeFrame(body []byte) []byte {
	out := make([]byte, frameHeaderLen+len(body))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(body))
	copy(out[frameHeaderLen:], body)
	return out
}

// decodeFrame decodes one frame from the head of raw, returning the record
// and the full frame length. ok is false for a torn or corrupt frame.
func decodeFrame(raw []byte) (rec frameRecord, n int32, ok bool) {
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
	if rec.Kind != kindEvents && (rec.Kind != kindCampaign || rec.Campaign == nil) {
		return rec, 0, false
	}
	return rec, int32(frameHeaderLen + int(bodyLen)), true
}

// trailer encodes the trailer that seals a segment of frameBytes.
func trailer(frameBytes int64) []byte {
	out := make([]byte, trailerLen)
	copy(out, trailerMagic)
	binary.LittleEndian.PutUint64(out[len(trailerMagic):], uint64(frameBytes))
	return out
}

// recoverFrames decodes a segment file's intact frames. In a sealed segment
// the trailer bounds the frames, and one that does not decode is an error
// naming its offset; bytes between the covered frames and the trailer are
// the unacknowledged remains of a failed append. An unsealed segment is
// scanned up to its first bad frame, which counts as its one torn record.
func recoverFrames(raw []byte) (entries []entry, torn uint64, err error) {
	frames, sealed := raw, false
	if n := len(raw) - trailerLen; n >= 0 && bytes.Equal(raw[n:n+len(trailerMagic)], trailerMagic) {
		covered := binary.LittleEndian.Uint64(raw[n+len(trailerMagic):])
		if covered > uint64(n) {
			return nil, 0, fmt.Errorf("trailer covers %d bytes, segment holds %d", covered, n)
		}
		frames, sealed = raw[:covered], true
	}
	entries, end := scanFrames(frames)
	if end < int64(len(frames)) {
		if sealed {
			return nil, 0, fmt.Errorf("corrupt frame at offset %d", end)
		}
		torn = 1
	}
	return entries, torn, nil
}

// scanFrames decodes every intact frame in raw, stopping at the first torn
// one — nothing after an interrupted write can be trusted — and returns the
// offset where it stopped.
func scanFrames(raw []byte) (entries []entry, end int64) {
	for int64(len(raw))-end >= frameHeaderLen {
		rec, n, ok := decodeFrame(raw[end:])
		if !ok {
			break
		}
		e := entry{lsn: rec.LSN, kind: rec.Kind, off: end, n: n}
		if rec.Campaign != nil {
			e.id = rec.Campaign.ID
		}
		entries = append(entries, e)
		end += int64(n)
	}
	return entries, end
}
