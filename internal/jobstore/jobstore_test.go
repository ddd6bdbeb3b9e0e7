package jobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dooc/internal/obs"
)

func rec(id int64, state string) Record {
	return Record{
		ID:          id,
		Key:         fmt.Sprintf("key%d", id),
		Tenant:      "t",
		Priority:    int(id),
		Payload:     []byte(fmt.Sprintf(`{"iters":%d}`, id)),
		State:       state,
		SubmittedAt: time.Unix(1000+id, 0).UTC(),
	}
}

// TestRoundTrip: appended records survive a close/reopen cycle with order,
// payloads, and the ID high-water mark intact.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := s.Append(rec(i, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	// A transition updates in place, not as a new job.
	r2 := rec(2, "done")
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, want := range []int64{1, 2, 3} {
		if recs[i].ID != want {
			t.Fatalf("record %d has ID %d, want %d (submission order lost)", i, recs[i].ID, want)
		}
	}
	if recs[1].State != "done" || recs[0].State != "queued" {
		t.Fatalf("states not replayed: %q %q", recs[0].State, recs[1].State)
	}
	if !bytes.Equal(recs[2].Payload, []byte(`{"iters":3}`)) {
		t.Fatalf("payload lost: %q", recs[2].Payload)
	}
	if s2.MaxID() != 3 {
		t.Fatalf("MaxID = %d, want 3", s2.MaxID())
	}
	if s2.ReplayInfo().Torn {
		t.Fatal("clean close reported a torn WAL")
	}
}

// TestTornFinalRecord: a WAL whose last record was cut mid-write (the crash
// signature) replays everything before the tear, reports Torn, repairs the
// file, and accepts new appends.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := s.Append(rec(i, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort() // no compaction: everything lives in the WAL

	// Tear the final record: chop a few bytes off the file.
	path := filepath.Join(dir, walName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.ReplayInfo().Torn {
		t.Fatal("torn WAL not reported")
	}
	if got := len(s2.Records()); got != 3 {
		t.Fatalf("replayed %d records after tear, want 3", got)
	}
	// The repaired journal accepts and persists new entries.
	if err := s2.Append(rec(9, "queued")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := len(s3.Records()); got != 4 {
		t.Fatalf("post-repair store replayed %d records, want 4", got)
	}
	if s3.ReplayInfo().Torn {
		t.Fatal("repaired WAL still reports torn")
	}
}

// TestAbortDropsNothingAcknowledged: every Append acknowledged before the
// simulated crash is visible after reopen (the fsync-per-transition
// contract).
func TestAbortDropsNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Append(rec(i, "running")); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()
	if err := s.Append(rec(6, "queued")); err != ErrClosed {
		t.Fatalf("append after abort: %v, want ErrClosed", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Records()); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
}

// TestCompactionAndRetention: compaction folds the WAL into the snapshot,
// prunes terminal history beyond the retention bound oldest-first, removes
// pruned result files, and never prunes live jobs or the ID high-water mark.
func TestCompactionAndRetention(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{CompactEvery: 1000, RetainHistory: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := int64(1); i <= 5; i++ {
		r := rec(i, "done")
		if i == 4 {
			r.State = "running" // live: must survive pruning
		} else {
			file, sha, err := s.SaveResult(i, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			r.ResultFile, r.ResultSHA = file, sha
			files = append(files, filepath.Join(dir, file))
		}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// 4 terminal records, retention 2: jobs 1 and 2 pruned, their results gone.
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("after retention: %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if r.ID == 1 || r.ID == 2 {
			t.Fatalf("job %d should have been pruned", r.ID)
		}
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("pruned job 1's result file survives: %v", err)
	}
	if _, err := os.Stat(files[2]); err != nil {
		t.Fatalf("retained job 3's result file gone: %v", err)
	}
	// The WAL is empty after compaction; replay comes from the snapshot.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated after compaction: %v size=%d", err, fi.Size())
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Records()); got != 3 {
		t.Fatalf("snapshot replayed %d records, want 3", got)
	}
	if s2.MaxID() != 5 {
		t.Fatalf("MaxID %d after pruning, want 5 (IDs must never be reused)", s2.MaxID())
	}
}

// TestAutoCompaction: the CompactEvery threshold triggers compaction from
// inside Append.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(1); i <= 4; i++ {
		if err := s.Append(rec(i, "queued")); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot after CompactEvery appends: %v", err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, walName)); fi.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after auto-compaction", fi.Size())
	}
}

// TestResultRoundTrip: SaveResult/LoadResult round-trips the payload, the
// SHA matches, and corruption is detected.
func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := []byte("the final iterate")
	file, sha, err := s.SaveResult(7, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%x", sha256.Sum256(payload))
	if sha != want {
		t.Fatalf("sha %s, want %s", sha, want)
	}
	r := Record{ID: 7, State: "done", ResultFile: file, ResultSHA: sha}
	got, err := s.LoadResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("result %q, want %q", got, payload)
	}
	// Flip a payload bit on disk: the frame CRC must catch it.
	abs := filepath.Join(dir, file)
	raw, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(abs, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadResult(r); err == nil {
		t.Fatal("corrupted result loaded without error")
	}
}

// TestOversizedAppendRejected: an entry past the journal frame cap is
// rejected at Append time — never acknowledged, never written — instead of
// being persisted as a frame replay would treat as torn (which would
// silently drop every later acknowledged entry).
func TestOversizedAppendRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(1, "queued")); err != nil {
		t.Fatal(err)
	}
	big := rec(2, "queued")
	big.Payload = make([]byte, maxWALFrameLen+1)
	if err := s.Append(big); err == nil {
		t.Fatal("oversized append acknowledged")
	}
	// The store keeps working, and entries after the rejection survive.
	if err := s.Append(rec(3, "queued")); err != nil {
		t.Fatalf("append after oversized rejection: %v", err)
	}
	s.Abort()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ReplayInfo().Torn {
		t.Fatal("rejected oversized append left a torn WAL")
	}
	recs := s2.Records()
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 3 {
		t.Fatalf("replayed %v, want jobs 1 and 3", recs)
	}
}

// TestLargeResultRoundTrip: result files are one frame per file and are not
// subject to the journal's 16 MiB entry cap — a result bigger than the cap
// (e.g. an 8*Dim iterate with millions of elements) persists and loads back
// across a restart instead of failing as "corrupt".
func TestLargeResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, maxWALFrameLen+4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	file, sha, err := s.SaveResult(11, payload)
	if err != nil {
		t.Fatalf("saving %d-byte result: %v", len(payload), err)
	}
	r := rec(11, "done")
	r.ResultFile, r.ResultSHA = file, sha
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.LoadResult(s2.Records()[0])
	if err != nil {
		t.Fatalf("loading large result after restart: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large result payload mutated across restart")
	}
}

// TestSaveResultAfterAbortRejected: after Abort (the kill -9 simulation) a
// racing worker must not keep adding durable result files — durable state
// stays exactly what the last acknowledged Append left.
func TestSaveResultAfterAbortRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if _, _, err := s.SaveResult(3, []byte("late")); err != ErrClosed {
		t.Fatalf("SaveResult after Abort: %v, want ErrClosed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, resultsDir, "job3.res")); !os.IsNotExist(err) {
		t.Fatalf("result file written after abort: %v", err)
	}
}

// TestDrainMarker: MarkDrain survives replay and is reported.
func TestDrainMarker(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(1, "running")); err != nil {
		t.Fatal(err)
	}
	before := time.Now().Add(-time.Second)
	if err := s.MarkDrain(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d := s2.ReplayInfo().LastDrain; !d.After(before) {
		t.Fatalf("drain marker not replayed: %v", d)
	}
}

// TestProxyRecordReplay: proxy-handle records replay across close/reopen —
// latest-wins updates, tombstone deletion, and survival of compaction.
func TestProxyRecordReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prx := func(name string, epoch uint64, refs int, owners ...string) ProxyRecord {
		return ProxyRecord{
			Name: name, Epoch: epoch, SHA256: "aa", Length: 16,
			Scope: "nodeA", Tenant: "t", JobID: 1,
			Arrays: []string{name + ":x_1_0"}, Refs: refs, Owners: owners,
		}
	}
	for _, r := range []ProxyRecord{
		prx("a", 1, 0, "origin"),
		prx("b", 1, 0, "origin"),
		prx("a", 1, 2, "origin", "job3"), // update in place, latest wins
	} {
		if err := s.AppendProxy(r); err != nil {
			t.Fatal(err)
		}
	}
	tomb := prx("b", 1, 0)
	tomb.Released = true
	if err := s.AppendProxy(tomb); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	live := s2.ProxyRecords()
	if len(live) != 1 || live[0].Name != "a" || live[0].Refs != 2 {
		t.Fatalf("replayed %+v", live)
	}
	if fmt.Sprint(live[0].Owners) != "[origin job3]" {
		t.Fatalf("owners %v", live[0].Owners)
	}
	if len(live[0].Arrays) != 1 || live[0].Arrays[0] != "a:x_1_0" {
		t.Fatalf("arrays %v", live[0].Arrays)
	}

	// Compaction folds the journal down to live state only: the surviving
	// handle rides through, the tombstoned one stays dead.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	live = s3.ProxyRecords()
	if len(live) != 1 || live[0].Name != "a" || live[0].Epoch != 1 || live[0].Refs != 2 {
		t.Fatalf("post-compaction %+v", live)
	}
}

// eventEntry is a journal entry whose record carries one flight event
// with a single "K"="V" attribute.
func eventEntry(t testing.TB) []byte {
	t.Helper()
	r := rec(7, "done")
	r.Events = []obs.FlightEvent{{Seq: 1, Kind: "transition", Name: "done", Attrs: obs.FlightAttrs{"K": "V"}}}
	payload, err := encodeEntry(&entry{Kind: entryRecord, Rec: r})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// gobUint decodes one gob unsigned integer, returning it and its width.
func gobUint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}

// appendGobUint appends v in gob's unsigned integer encoding.
func appendGobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	i := 0
	for be[i] == 0 {
		i++
	}
	return append(append(b, byte(-int8(8-i))), be[i:]...)
}

// TestDecodeEntryRejectsForgedAttrCount: a journal entry whose flight-event
// attrs claim 2^20 pairs in a few bytes is refused without allocating for
// the claimed count — the WAL frame's CRC is valid, so only the decoder
// stands between a forged record and the allocation.
func TestDecodeEntryRejectsForgedAttrCount(t *testing.T) {
	payload := eventEntry(t)
	e, err := decodeEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Rec.Events[0].Attrs; len(got) != 1 || got["K"] != "V" {
		t.Fatalf("attrs replayed as %v", got)
	}

	// The attrs travel as a 5-byte blob: count 1, then "K" and "V".
	blob := []byte{0x05, 0x01, 0x01, 'K', 0x01, 'V'}
	at := bytes.Index(payload, blob)
	if at < 0 {
		t.Fatalf("attrs blob not found in % x", payload)
	}
	forgedBlob := append(binary.AppendUvarint(nil, 1<<20), blob[2:]...)
	forgedBlob = append([]byte{byte(len(forgedBlob))}, forgedBlob...)
	// Only the last gob message (the entry value) grows; re-prefix it.
	last, w := 0, 0
	for pos := 0; pos < len(payload); {
		n, width := gobUint(payload[pos:])
		last, w = pos, width
		pos += width + int(n)
	}
	if at < last+w {
		t.Fatal("attrs blob outside the value message")
	}
	body := append(append(append([]byte(nil), payload[last+w:at]...), forgedBlob...), payload[at+len(blob):]...)
	forged := appendGobUint(append([]byte(nil), payload[:last]...), uint64(len(body)))
	forged = append(forged, body...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeEntry(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged attr count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("decoding the forged entry allocated %d bytes", grew)
	}
}

// FuzzReplayWAL feeds arbitrary entry payloads through the replay path — a
// CRC-valid WAL frame, readFrame, decodeEntry — in memory. Any input must
// decode or fail cleanly; none may panic or allocate past its own size
// class.
func FuzzReplayWAL(f *testing.F) {
	f.Add(eventEntry(f))
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload, maxWALFrameLen); err != nil {
			return
		}
		got, err := readFrame(&buf, int64(buf.Len()), maxWALFrameLen)
		if err != nil {
			if len(payload) == 0 {
				return // an empty frame reads as torn
			}
			t.Fatalf("readFrame of a valid frame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("frame round trip changed the payload")
		}
		decodeEntry(got)
	})
}
