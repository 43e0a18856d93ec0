package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func noFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Lstat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("%s exists (err %v), want it gone", path, err)
	}
}

func TestWriteFileReplacesAndLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	for _, want := range []string{"first, and longer than the second", "second"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); got != want {
			t.Fatalf("file holds %q, want %q", got, want)
		}
		noFile(t, path+".tmp")
	}
}

// TestFailedWriteKeepsOldFile breaks each step of a write and requires
// the target to keep its old bytes. Permission bits are no use here (root
// ignores them), so the failures come from directories in the way.
func TestFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}

	// The temp file cannot be created: a directory holds its name.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("write over a blocked temp name succeeded")
	}
	if got := readFile(t, path); got != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}

	// The rename fails: the target is a non-empty directory. The temp
	// file must not be left behind.
	target := filepath.Join(dir, "d")
	if err := os.MkdirAll(filepath.Join(target, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("new")); err == nil {
		t.Fatal("rename over a directory succeeded")
	}
	noFile(t, target+".tmp")
	if _, err := os.Stat(filepath.Join(target, "x")); err != nil {
		t.Fatalf("failed write disturbed the directory: %v", err)
	}

	// The rotation fails: path.2 is a non-empty directory. path.1 keeps
	// its bytes and the temp file is removed.
	if err := WriteRotating(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path+".2", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteRotating(path, []byte("two")); err == nil {
		t.Fatal("rotation over a directory succeeded")
	}
	if got := readFile(t, path+".1"); got != "one" {
		t.Fatalf("failed rotation changed %s.1 to %q", path, got)
	}
	noFile(t, path+".1.tmp")
}

func TestWriteRotatingKeepsLastTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	for _, data := range []string{"a", "b", "c"} {
		if err := WriteRotating(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFile(t, path+".1"); got != "c" {
		t.Errorf("%s.1 = %q, want the last write", path, got)
	}
	if got := readFile(t, path+".2"); got != "b" {
		t.Errorf("%s.2 = %q, want the write before it", path, got)
	}
	noFile(t, path)
	noFile(t, path+".1.tmp")
}

func decodeGood(data []byte) (string, error) {
	if !strings.HasPrefix(string(data), "good") {
		return "", errors.New("bad content")
	}
	return string(data), nil
}

// TestReadRotatingFallbackOrder pins which files each argument may fall
// back to, and the error when none can be recovered.
func TestReadRotatingFallbackOrder(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "c.json")
	write := func(path, data string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(p, "good P")
	write(p+".1", "good P.1")
	write(p+".2", "good P.2")

	cases := []struct {
		name    string
		arg     string
		corrupt []string // files made undecodable first
		want    string   // file used, "" for failure
		skipped int      // files reported as skipped
	}{
		{"P intact", p, nil, p, 0},
		{"P corrupt", p, []string{p}, p + ".1", 1},
		{"P and P.1 corrupt", p, []string{p, p + ".1"}, p + ".2", 2},
		{"P.1 argument", p + ".1", []string{p + ".1"}, p + ".2", 1},
		{"P.1 never falls back to P", p + ".1", []string{p + ".1", p + ".2"}, "", 2},
		{"P.2 argument has no fallback", p + ".2", []string{p + ".2"}, "", 1},
		{"all corrupt", p, []string{p, p + ".1", p + ".2"}, "", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range []string{p, p + ".1", p + ".2"} {
				write(f, "good "+strings.TrimPrefix(f, dir+string(filepath.Separator)))
			}
			for _, f := range tc.corrupt {
				write(f, "bad")
			}
			v, used, err := ReadRotating(tc.arg, decodeGood)
			if used != tc.want {
				t.Fatalf("used %q, want %q (err %v)", used, tc.want, err)
			}
			var joined interface{ Unwrap() []error }
			switch {
			case tc.want == "" && tc.skipped > 1:
				if err == nil || !strings.Contains(err.Error(), "no rotation could be recovered") {
					t.Fatalf("err %v, want an unrecoverable-rotation error", err)
				}
			case tc.want == "":
				if err == nil {
					t.Fatal("failed read returned no error")
				}
			case v != "good "+filepath.Base(tc.want):
				t.Fatalf("decoded %q from %s", v, used)
			case tc.skipped == 0:
				if err != nil {
					t.Fatalf("clean read reported %v", err)
				}
			case !errors.As(err, &joined) || len(joined.Unwrap()) != tc.skipped:
				t.Fatalf("fallback err %v, want %d skipped files", err, tc.skipped)
			}
		})
	}

	// A missing file falls back like a corrupt one.
	write(p+".1", "good P.1")
	os.Remove(p)
	if _, used, err := ReadRotating(p, decodeGood); used != p+".1" || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing P: used %q err %v, want %s.1 and a not-exist cause", used, err, p)
	}
}

type doc struct {
	Name     string `json:"name"`
	Checksum string `json:"checksum,omitempty"`
}

func TestSealVerify(t *testing.T) {
	d := doc{Name: "ring"}
	data, err := Seal(&d, &d.Checksum)
	if err != nil {
		t.Fatal(err)
	}
	if d.Checksum == "" || !bytes.Contains(data, []byte(d.Checksum)) {
		t.Fatalf("sealed rendering %s lacks its checksum %q", data, d.Checksum)
	}
	if err := Verify(&d, &d.Checksum); err != nil {
		t.Fatalf("verify sealed value: %v", err)
	}
	stored := d.Checksum
	d.Name = "rinh"
	if err := Verify(&d, &d.Checksum); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify altered value: %v, want a checksum mismatch", err)
	}
	if d.Checksum != stored {
		t.Fatal("Verify changed the stored checksum")
	}
	// Re-sealing ignores the stale checksum: the same content seals to
	// the same bytes.
	d.Name = "ring"
	if back, err := Seal(&d, &d.Checksum); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("re-sealing the original content gave %s (%v), want %s", back, err, data)
	}
}
