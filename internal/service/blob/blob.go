// Package blob is the serving tier's pluggable storage layer: a small
// content-addressed key/value store behind which job checkpoints, retained
// fleet snapshots and the result cache's persistent tier live. Keys are
// derived from canonical config fingerprints (themselves content hashes of
// the full run description), so two equivalent submissions address the
// same blob and any replica — worker, coordinator, or a process restarted
// over the same store — resolves the same bytes. That is what makes the
// workers stateless: a shard's durable state lives in the store, not in
// any process's filesystem.
//
// Two implementations ship: FS (a directory tree, atomic temp+rename
// writes, the single-host and shared-volume deployment) and Mem (a
// mutex-guarded map, for tests and ephemeral servers). An S3-style remote
// store is a third implementation of the same four methods away.
package blob

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound reports a Get of a key the store does not hold.
var ErrNotFound = errors.New("blob: not found")

// Store is a flat key/value blob store. Implementations must be safe for
// concurrent use; Put must be atomic (a concurrent Get sees the old blob
// or the new one, never a torn write) and Delete idempotent.
type Store interface {
	// Put stores data under key, replacing any existing blob.
	Put(key string, data []byte) error
	// Get returns the blob stored under key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// List returns every stored key with the given prefix, in
	// unspecified order. An empty prefix lists everything.
	List(prefix string) ([]string, error)
	// Delete removes the blob under key; deleting an absent key is a
	// no-op.
	Delete(key string) error
}

// ValidateKey rejects keys that could escape a path-backed store or
// round-trip badly: empty keys, absolute keys, dot segments, and control
// characters. Slashes are allowed and namespace the store
// ("results/<fingerprint>").
func ValidateKey(key string) error {
	if key == "" {
		return errors.New("blob: empty key")
	}
	if strings.HasPrefix(key, "/") || strings.HasSuffix(key, "/") {
		return fmt.Errorf("blob: key %q must not start or end with a slash", key)
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("blob: key %q has an empty or dot path segment", key)
		}
	}
	for _, r := range key {
		if r < 0x20 || r == 0x7f || r == '\\' {
			return fmt.Errorf("blob: key %q has a control or backslash character", key)
		}
	}
	return nil
}
