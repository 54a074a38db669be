package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipesim/internal/sweep"
)

func testLogger(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, nil))
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt.jsonl")
	ck, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []PointResult{
		{Point: "conv/128", Key: strings.Repeat("ab", 32), Cycles: 12345, Valid: true,
			Attr: &sweep.BucketTotals{Issue: 100, FetchStarved: 20}, Attempts: 1, Seq: 1},
		{Point: "conv/64", Key: strings.Repeat("cd", 32), Valid: false, Attempts: 1, Seq: 2},
		{Point: "exp:fig5a", Key: strings.Repeat("ef", 32), Cycles: 999, Valid: true,
			Attr: &sweep.BucketTotals{Issue: 700, LDQWait: 299}, Attempts: 3, Seq: 3},
	}
	for _, r := range want {
		if err := ck.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := readCheckpoint(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Point != want[i].Point || got[i].Key != want[i].Key ||
			got[i].Cycles != want[i].Cycles || got[i].Valid != want[i].Valid ||
			got[i].Attempts != want[i].Attempts || got[i].Seq != want[i].Seq {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		if (got[i].Attr == nil) != (want[i].Attr == nil) ||
			(want[i].Attr != nil && *got[i].Attr != *want[i].Attr) {
			t.Errorf("record %d attribution: got %+v, want %+v", i, got[i].Attr, want[i].Attr)
		}
	}
}

func TestReadCheckpointMissingFile(t *testing.T) {
	got, err := readCheckpoint(filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if err != nil || got != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", got, err)
	}
}

// TestReadCheckpointTruncatedTail simulates a crash mid-append: the last
// record is cut off. The reader must keep every complete record, discard
// the fragment, and say so in the log.
func TestReadCheckpointTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt.jsonl")
	ck, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []PointResult{
		{Point: "a/64", Key: strings.Repeat("11", 32), Cycles: 1, Valid: true},
		{Point: "a/128", Key: strings.Repeat("22", 32), Cycles: 2, Valid: true},
		{Point: "a/256", Key: strings.Repeat("33", 32), Cycles: 3, Valid: true},
	} {
		if err := ck.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ck.Close()

	// Chop the file mid-way through the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '{')
	if err := os.WriteFile(path, data[:cut+10], 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	got, err := readCheckpoint(path, testLogger(&logBuf))
	if err != nil {
		t.Fatalf("truncated tail must not fail the read: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want the 2 complete ones", len(got))
	}
	if got[0].Point != "a/64" || got[1].Point != "a/128" {
		t.Fatalf("wrong surviving records: %+v", got)
	}
	if !strings.Contains(logBuf.String(), "corrupt checkpoint record") {
		t.Errorf("want a logged warning about the discarded record, log was: %s", logBuf.String())
	}
}

// TestReadCheckpointCorruptMiddle asserts a corrupt record in the middle
// (bit rot, editor accident) is skipped without losing its neighbours.
func TestReadCheckpointCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt.jsonl")
	lines := []string{
		`{"point":"a/64","key":"` + strings.Repeat("11", 32) + `","cycles":1,"valid":true,"elapsed_s":0,"attempts":1}`,
		`{"point":"a/128","key":`, // malformed
		// Records written before catalog points stopped carrying a
		// "series" copy of the experiment table still load.
		`{"point":"a/256","key":"` + strings.Repeat("33", 32) + `","cycles":3,"valid":true,"series":{"x_label":"cache"},"elapsed_s":0,"attempts":1}`,
		`{"cycles":9,"valid":true}`, // parses, but no identity — dropped
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	got, err := readCheckpoint(path, testLogger(&logBuf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Point != "a/64" || got[1].Point != "a/256" {
		t.Fatalf("got %+v, want the two well-formed records", got)
	}
	log := logBuf.String()
	if !strings.Contains(log, "corrupt checkpoint record") || !strings.Contains(log, "without identity") {
		t.Errorf("want warnings for both discarded lines, log was: %s", log)
	}
}

// tearAppend simulates a crash partway through an append: it writes only
// the first n bytes of r's checkpoint line.
func tearAppend(t *testing.T, path string, r PointResult, n int) {
	t.Helper()
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')[:n]); err != nil {
		t.Fatal(err)
	}
}

// appendAll opens the checkpoint at path, appends rs and closes it.
func appendAll(t *testing.T, path string, rs ...PointResult) {
	t.Helper()
	ck, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if err := ck.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}

func points(t *testing.T, path string) []string {
	t.Helper()
	recs, err := readCheckpoint(path, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		out = append(out, r.Point)
	}
	return out
}

// TestCheckpointAppendAfterTornTail: a record appended after a crash's
// torn tail must survive. Reopening for append cuts the fragment off, so
// the new record does not merge with it into one unreadable line.
func TestCheckpointAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.ckpt.jsonl")
	a := PointResult{Point: "a/64", Key: strings.Repeat("11", 32), Cycles: 1, Valid: true, Seq: 1}
	torn := PointResult{Point: "a/128", Key: strings.Repeat("22", 32), Cycles: 2, Valid: true, Seq: 2}
	b := PointResult{Point: "a/256", Key: strings.Repeat("33", 32), Cycles: 3, Valid: true, Seq: 2}
	appendAll(t, path, a)
	tearAppend(t, path, torn, 20)
	appendAll(t, path, b)
	if got := points(t, path); !reflect.DeepEqual(got, []string{"a/64", "a/256"}) {
		t.Fatalf("recovered points %v, want [a/64 a/256]", got)
	}
}

// TestCheckpointTornTailEnumeration cuts the last append at every byte
// offset of its line, then recovers, appends and recovers again. The torn
// record counts only once its newline is down; every complete record
// survives both recoveries, in order.
func TestCheckpointTornTailEnumeration(t *testing.T) {
	dir := t.TempDir()
	recs := []PointResult{
		{Point: "conv/64", Key: strings.Repeat("11", 32), Cycles: 1, Valid: true, Seq: 1},
		{Point: "conv/128", Key: strings.Repeat("22", 32), Cycles: 2, Valid: true, Seq: 2,
			Attr: &sweep.BucketTotals{Issue: 100, FetchStarved: 20}},
	}
	last := PointResult{Point: "exp:fig5a", Key: strings.Repeat("33", 32), Cycles: 3, Valid: true, Seq: 3}
	next := PointResult{Point: "conv/256", Key: strings.Repeat("44", 32), Cycles: 4, Valid: true, Seq: 4}
	line, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(line)+1; n++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.ckpt.jsonl", n))
		appendAll(t, path, recs...)
		tearAppend(t, path, last, n)
		want := []string{"conv/64", "conv/128"}
		if n == len(line)+1 {
			want = append(want, last.Point)
		}
		if got := points(t, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: first recovery %v, want %v", n, got, want)
		}
		appendAll(t, path, next)
		want = append(want, next.Point)
		if got := points(t, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: recovery after an append %v, want %v", n, got, want)
		}
	}
}
