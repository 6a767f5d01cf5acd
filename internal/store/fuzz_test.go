package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// fuzzFrame frames a record body the way Put does, for seed corpus entries.
func fuzzFrame(rec frameRecord) []byte {
	body, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return encodeFrame(body)
}

// sealed appends the trailer covering frames, as Close and rotation do.
func sealed(frames []byte) []byte {
	return append(append([]byte{}, frames...), trailer(int64(len(frames)))...)
}

// FuzzFrameDecode throws arbitrary bytes at segment recovery. The
// invariants: recoverFrames never panics and never reads past its input; a
// segment it accepts is either sealed, with every covered frame intact, or
// unsealed, with a torn record counted whenever the scan stopped early; and
// every frame it accepts survives the decode→re-encode round trip at its
// reported offset.
func FuzzFrameDecode(f *testing.F) {
	camp := &campaignRecord{ID: 7, Payload: json.RawMessage(`{"id":7,"state":"done"}`)}
	one := fuzzFrame(frameRecord{LSN: 1, Kind: kindCampaign, Campaign: camp})
	f.Add(one)
	legacy := encodeFrame([]byte(`{"lsn":2,"kind":"events","events":{"campaign_id":7,"events":[{"name":"x"}]}}`))
	f.Add(legacy)
	two := append(fuzzFrame(frameRecord{LSN: 3, Kind: kindCampaign, Campaign: camp}), legacy...)
	f.Add(two)
	f.Add(append(two, 0xde, 0xad))         // intact frames + torn tail
	f.Add([]byte{})                        // empty segment
	f.Add([]byte{1, 0, 0, 0})              // bare length word
	f.Add(bytes.Repeat([]byte{0xff}, 64))  // all-ones garbage
	f.Add(one[:len(one)-3])                // truncated mid-body
	f.Add(sealed(two))                     // sealed segment
	f.Add(sealed(two)[:len(two)+5])        // torn trailer
	f.Add(append(append([]byte{}, two...), // failed append: garbage before the trailer
		append([]byte{32, 0, 0, 0, 0xde}, trailer(int64(len(two)))...)...))
	corrupt := sealed(two)
	corrupt[frameHeaderLen+3] ^= 0x01 // a flipped body byte under the trailer
	f.Add(corrupt)
	f.Add(append(append([]byte{}, trailerMagic...), 0xff, 0, 0, 0, 0, 0, 0, 0)) // overrunning count

	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, torn, err := recoverFrames(raw)
		if err != nil {
			if len(entries) != 0 || torn != 0 {
				t.Fatalf("failed recovery returned %d entries, %d torn", len(entries), torn)
			}
			return
		}
		var off int64
		for i, e := range entries {
			if e.off != off {
				t.Fatalf("entry %d at offset %d, scan cursor %d", i, e.off, off)
			}
			if e.n < frameHeaderLen || e.off+int64(e.n) > int64(len(raw)) {
				t.Fatalf("entry %d out of bounds: off=%d n=%d len=%d", i, e.off, e.n, len(raw))
			}
			if e.kind != kindCampaign && e.kind != kindEvents {
				t.Fatalf("entry %d has impossible kind %q", i, e.kind)
			}
			// Round trip: the accepted frame region must re-decode to a frame
			// of the same length, and its body must re-frame byte-identically.
			region := raw[e.off : e.off+int64(e.n)]
			rec, n, ok := decodeFrame(region)
			if !ok || n != e.n {
				t.Fatalf("entry %d region does not re-decode: ok=%v n=%d want %d", i, ok, n, e.n)
			}
			bodyLen := binary.LittleEndian.Uint32(region[0:4])
			if reframed := encodeFrame(region[frameHeaderLen : frameHeaderLen+int(bodyLen)]); !bytes.Equal(reframed, region) {
				t.Fatalf("entry %d frame not canonical after round trip", i)
			}
			if rec.LSN != e.lsn {
				t.Fatalf("entry %d LSN mismatch: %d vs %d", i, rec.LSN, e.lsn)
			}
			off += int64(e.n)
		}
		isSealed := len(raw) >= trailerLen && bytes.Equal(raw[len(raw)-trailerLen:len(raw)-trailerLen+len(trailerMagic)], trailerMagic)
		switch {
		case isSealed && torn != 0:
			t.Fatalf("sealed segment reported %d torn records", torn)
		case isSealed && binary.LittleEndian.Uint64(raw[len(raw)-8:]) != uint64(off):
			t.Fatalf("sealed segment accepted %d of the %d bytes its trailer covers", off, binary.LittleEndian.Uint64(raw[len(raw)-8:]))
		case !isSealed && off < int64(len(raw)) && torn != 1:
			t.Fatalf("scan stopped at %d of %d bytes with %d torn records, want 1", off, len(raw), torn)
		case !isSealed && off == int64(len(raw)) && torn != 0:
			t.Fatalf("scan consumed every byte yet reported %d torn records", torn)
		}
	})
}
