// Package durable is the one writer of every file the system persists:
// checkpoints, cache spills, address files, metrics files and saved
// graphs. It owns the crash contract. A reader of a path sees either the
// previous complete file or the new complete file, never a truncated
// mix, because data is written to a temp sibling, fsynced, renamed over
// the target, and the parent directory is fsynced so the rename itself
// survives a crash.
//
// Rotating files keep the last two writes (path.1, path.2) beside the
// primary path, and ReadRotating recovers from the newest intact one.
// Seal and Verify give JSON documents a SHA-256 content checksum that
// covers every other byte of the file.
package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// WriteFile atomically replaces path with data: it writes path.tmp,
// fsyncs it, renames it over path and fsyncs the parent directory. On
// any failure the temp file is removed and path keeps its old bytes.
func WriteFile(path string, data []byte) error {
	return write(path, data, nil)
}

// WriteRotating writes data to path.1 and keeps the previous path.1 as
// path.2, so the last two writes survive. The new data is synced before
// the rotation moves anything, so a failed write leaves both rotation
// files as they were.
func WriteRotating(path string, data []byte) error {
	return write(path+".1", data, func() error {
		if err := os.Rename(path+".1", path+".2"); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	})
}

// write is WriteFile with a hook that runs after the temp file is
// synced and before it is renamed into place.
func write(path string, data []byte, beforeRename func() error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename lives in the parent directory: sync it too, or a crash
	// can lose the new name even though the file data is on disk.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// ReadRotating reads and decodes path, falling back to the rotation
// files when it is missing, corrupt or truncated: path, then path.1,
// then path.2. A path.1 argument falls back to path.2 only, and a path.2
// argument has no fallback. It returns the decoded value and the file it
// came from. When that file is not path, err joins the errors of the
// files skipped before it; when every file fails, used is "" and err
// says no rotation could be recovered.
func ReadRotating[T any](path string, decode func([]byte) (T, error)) (v T, used string, err error) {
	candidates := []string{path}
	if base, ok := strings.CutSuffix(path, ".1"); ok {
		candidates = append(candidates, base+".2")
	} else if !strings.HasSuffix(path, ".2") {
		candidates = append(candidates, path+".1", path+".2")
	}
	var errs []error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err == nil {
			if v, err = decode(data); err == nil {
				return v, p, errors.Join(errs...)
			}
		}
		errs = append(errs, fmt.Errorf("%s: %w", p, err))
	}
	if len(errs) > 1 {
		return v, "", fmt.Errorf("%s is unusable and no rotation could be recovered: %w", path, errors.Join(errs...))
	}
	return v, "", errs[0]
}

// Seal stores in *sum the content checksum of v and returns v's indented
// JSON rendering carrying it. sum must point at v's checksum field; the
// checksum is taken with that field empty, so it covers every other byte
// of the rendering.
func Seal(v any, sum *string) ([]byte, error) {
	*sum = ""
	s, err := checksum(v)
	if err != nil {
		return nil, err
	}
	*sum = s
	return json.MarshalIndent(v, "", "  ")
}

// Verify checks the checksum stored in *sum, which must point at v's
// checksum field, against v's content. It leaves *sum unchanged.
func Verify(v any, sum *string) error {
	stored := *sum
	*sum = ""
	want, err := checksum(v)
	*sum = stored
	if err != nil {
		return err
	}
	if stored != want {
		return fmt.Errorf("checksum mismatch (file is corrupt or truncated): stored %s, content %s", stored, want)
	}
	return nil
}

// checksum is the hex SHA-256 of v's indented JSON rendering.
func checksum(v any) (string, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}
