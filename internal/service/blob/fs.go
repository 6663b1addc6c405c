package blob

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is a filesystem-backed Store rooted at one directory. Key slashes map
// to subdirectories; writes are atomic (unique temp file in the target
// directory, then rename), so a reader — including another process sharing
// the directory over a common volume — sees the old blob or the new one,
// never a torn write. That property is what lets a restarted coordinator
// trust whatever checkpoints it finds here.
type FS struct {
	root string
}

// NewFS opens (creating if needed) a filesystem store rooted at dir.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: create store root: %w", err)
	}
	return &FS{root: dir}, nil
}

func (s *FS) path(key string) (string, error) {
	if err := ValidateKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements Store.
func (s *FS) Put(key string, data []byte) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *FS) Get(key string) ([]byte, error) {
	path, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("blob: get %s: %w", key, err)
	}
	return data, nil
}

// List implements Store.
func (s *FS) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(s.root, path)
		if rerr != nil {
			return rerr
		}
		key := filepath.ToSlash(rel)
		// Skip in-flight temp files: they are not committed blobs.
		if strings.HasPrefix(filepath.Base(key), ".put-") {
			return nil
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: list %q: %w", prefix, err)
	}
	return keys, nil
}

// Delete implements Store.
func (s *FS) Delete(key string) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blob: delete %s: %w", key, err)
	}
	return nil
}
