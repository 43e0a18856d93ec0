package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeCheckpoint feeds arbitrary bytes to the campaign checkpoint
// decoder. It must never panic, and every checkpoint it accepts must
// re-encode, decode again, and re-encode to the same bytes: the decoder
// and the encoder agree on which checkpoints are valid and on what they
// say. (Values are compared by their rendering, which cannot tell a nil
// slice from an empty one.) The seed corpus is real Encode output plus
// its checksum-free form, which decodes as a pre-checksum checkpoint.
//
//	go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/scenario/
func FuzzDecodeCheckpoint(f *testing.F) {
	base := CampaignConfig{Generator: "boundary", Gen: GenConfig{MaxRing: 8}, Count: 6, Seeds: []uint64{1, 2}}
	for _, n := range []int{1, 2} {
		ckpt := shardCheckpoint(f, base, 0, n)
		data, err := ckpt.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		legacy := *ckpt
		legacy.Checksum = ""
		if data, err = json.Marshal(&legacy); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
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
