package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/scenario"
)

// FuzzSpillReader feeds arbitrary bytes to the spill reader. It must
// never panic; every spill it accepts must re-encode, decode again and
// re-encode to the same bytes; and any document that parses, once
// resealed under this binary's version and fingerprint (a random
// mutation almost never carries a valid checksum), must warm a cache
// without error and admit at most its own verdicts. The seed corpus is
// real WriteSpill output.
//
//	go test -run '^$' -fuzz FuzzSpillReader -fuzztime 10s ./internal/serve/cache/
func FuzzSpillReader(f *testing.F) {
	dir := f.TempDir()
	for _, n := range []int{0, 3} {
		c := New(Config{})
		for seed := uint64(1); seed <= uint64(n); seed++ {
			s := testSpec(seed)
			key, err := Key(s)
			if err != nil {
				f.Fatal(err)
			}
			c.Put(key, scenario.Run(s))
		}
		path := filepath.Join(dir, "seed.spill")
		if _, err := c.WriteSpill(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if doc, err := decodeSpill(data); err == nil {
			enc, err := doc.encode()
			if err != nil {
				t.Fatalf("accepted spill does not re-encode: %v", err)
			}
			back, err := decodeSpill(enc)
			if err != nil {
				t.Fatalf("re-encoded spill does not decode: %v\n%s", err, enc)
			}
			again, err := back.encode()
			if err != nil || !bytes.Equal(enc, again) {
				t.Fatalf("round trip changed the spill (%v):\n%s\n--- then ---\n%s", err, enc, again)
			}
		}
		var doc spillDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		doc.Version, doc.Fingerprint = spillVersion, Fingerprint()
		sealed, err := doc.encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cache.spill")
		if err := os.WriteFile(path, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		warnf, warnings := collectWarnings()
		warmed, err := New(Config{}).WarmFromSpill(path, warnf)
		if err != nil || warmed > len(doc.Verdicts) {
			t.Fatalf("warmed %d of %d verdicts, err %v", warmed, len(doc.Verdicts), err)
		}
		for _, w := range *warnings {
			if !strings.Contains(w, " entry ") {
				t.Fatalf("resealed spill was refused: %s", w)
			}
		}
	})
}
