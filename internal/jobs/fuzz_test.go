package jobs

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzJobCheckpoint feeds arbitrary bytes to the checkpoint reader: no
// input may crash it or make it return an error (corruption is recovered
// from, not fatal), and every record it does return must carry the
// identity fields recovery depends on. When the input happens to be a
// valid checkpoint, re-appending the parsed records must read back the
// same point set (round trip).
func FuzzJobCheckpoint(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"point":"conv/128","key":"` + strings.Repeat("ab", 32) + `","cycles":42,"valid":true,"elapsed_s":0.1,"attempts":1}` + "\n"))
	f.Add([]byte(`{"point":"a","key":"k","cycles":1,"valid":true}` + "\n" + `{"point":"b","key":`))
	f.Add([]byte(`{"cycles":1}` + "\n"))
	f.Add([]byte(`not json at all`))
	f.Add([]byte("{\"point\":\"x\",\"key\":\"y\"}\n\x00\xff\xfe\n"))
	f.Add([]byte(`{"point":"exp:fig5b","key":"` + strings.Repeat("cd", 32) + `","cycles":7,"valid":true,"seq":3,"series":{"x_label":"cache"}}` + "\n"))

	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.ckpt.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, err := readCheckpoint(path, log)
		if err != nil {
			t.Fatalf("readCheckpoint must recover, not fail: %v", err)
		}
		for _, r := range recs {
			if r.Point == "" || r.Key == "" {
				t.Fatalf("record without identity escaped the reader: %+v", r)
			}
		}

		// Round trip: appending what we parsed must parse back to the
		// same identities in the same order.
		rt := filepath.Join(dir, "rt.ckpt.jsonl")
		ck, err := openCheckpoint(rt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := ck.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		ck.Close()
		got, err := readCheckpoint(rt, log)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round trip: %d records in, %d out", len(recs), len(got))
		}
		for i := range recs {
			if got[i].Point != recs[i].Point || got[i].Key != recs[i].Key ||
				got[i].Cycles != recs[i].Cycles || got[i].Valid != recs[i].Valid ||
				got[i].Seq != recs[i].Seq {
				t.Fatalf("round trip record %d: %+v != %+v", i, got[i], recs[i])
			}
		}
	})
}
