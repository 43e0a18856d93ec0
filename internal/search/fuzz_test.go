package search

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the search checkpoint
// decoder. It must never panic, and every checkpoint it accepts must
// re-encode, decode again, and re-encode to the same bytes. (Values are
// compared by their rendering, which cannot tell a nil slice from an
// empty one.) The seed corpus is real Encode output from a warmup and a
// post-warmup generation, plus their checksum-free forms.
//
//	go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/search/
func FuzzDecodeCheckpoint(f *testing.F) {
	cfg := testConfig()
	cfg.Generations = 3
	cfg.OnGeneration = func(p Progress) error {
		if p.Generation == 1 || p.Generation == 3 {
			ck := p.Checkpoint()
			data, err := ck.Encode()
			if err != nil {
				return err
			}
			f.Add(data)
			if data, err = json.Marshal(ck); err != nil {
				return err
			}
			f.Add(data)
		}
		return nil
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		back, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the checkpoint:\n%s\n--- then ---\n%s", enc, again)
		}
	})
}
