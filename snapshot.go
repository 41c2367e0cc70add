package prism

// Engine snapshots on the public surface: Snapshot serializes the
// engine's analyzed source database; OpenSnapshot / ReadSnapshot rebuild
// an equivalent engine from that serialization without re-ingesting or
// re-analyzing anything. The underlying format (internal/mem) is
// versioned and checksummed; see docs/storage.md.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"prism/internal/fault"
	"prism/internal/mem"
)

// Fault points on the snapshot file-install seams, so tests can fail
// each step (fsync of the temp file, the atomic rename, the directory
// sync) and pin that a failed install never publishes a torn file.
var (
	faultSnapshotSync   = fault.Register("snapshot.sync")
	faultSnapshotRename = fault.Register("snapshot.rename")
)

// Snapshot-format sentinels, re-exported so callers can classify load
// failures without importing internal packages.
var (
	// ErrSnapshotCorrupt reports a snapshot file that failed structural
	// validation (bad magic, truncation, checksum mismatch, impossible
	// encoding). Loads fail closed: no partially-decoded engine is ever
	// returned.
	ErrSnapshotCorrupt = mem.ErrSnapshotCorrupt
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version of this library.
	ErrSnapshotVersion = mem.ErrSnapshotVersion
)

// Snapshot serializes the engine's source database — rows, schema and
// statistics, keyed by the database's data version — to w. A later OpenSnapshot/ReadSnapshot of those bytes yields
// an engine that produces byte-identical mapping sets.
func (e *Engine) Snapshot(w io.Writer) error {
	return e.Database().WriteSnapshot(w)
}

// SnapshotFile writes the engine's snapshot atomically and durably to
// path: the bytes land in a temporary sibling file first, are fsynced,
// and are renamed into place — then the directory is synced so the
// rename itself survives a crash. Readers never observe a half-written
// snapshot, and a power loss cannot publish a torn one.
func (e *Engine) SnapshotFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".prism-snap-*")
	if err != nil {
		return fmt.Errorf("prism: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := e.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Sync before rename: without it the rename can land on disk ahead
	// of the data, and a crash between the two publishes a torn file at
	// the final path — exactly what the temp-and-rename dance exists to
	// prevent.
	syncErr := faultSnapshotSync.Hit()
	if syncErr == nil {
		syncErr = tmp.Sync()
	}
	if syncErr != nil {
		tmp.Close()
		return fmt.Errorf("prism: syncing snapshot temp file: %w", syncErr)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("prism: closing snapshot temp file: %w", err)
	}
	renameErr := faultSnapshotRename.Hit()
	if renameErr == nil {
		renameErr = os.Rename(tmp.Name(), path)
	}
	if renameErr != nil {
		return fmt.Errorf("prism: installing snapshot: %w", renameErr)
	}
	// Sync the directory so the rename entry itself is durable. Some
	// platforms cannot fsync a directory; treat only real sync failures
	// as errors.
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		serr := faultSnapshotSync.Hit()
		if serr == nil {
			serr = dir.Sync()
		}
		dir.Close()
		if serr != nil && !os.IsPermission(serr) {
			return fmt.Errorf("prism: syncing snapshot directory: %w", serr)
		}
	}
	return nil
}

// ReadSnapshot decodes a snapshot stream written by Engine.Snapshot and
// returns an engine over the restored database. The session-cache option
// applies as with Open; dataset-sizing options do
// not (the data comes from the snapshot) and are rejected as caller
// bugs.
func ReadSnapshot(r io.Reader, options ...OpenOption) (*Engine, error) {
	cfg, err := snapshotConfig(options)
	if err != nil {
		return nil, err
	}
	db, err := mem.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newEngine(db, cfg.sessionCache), nil
}

// OpenSnapshot is ReadSnapshot over a file path.
func OpenSnapshot(path string, options ...OpenOption) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("prism: opening snapshot: %w", err)
	}
	defer f.Close()
	eng, err := ReadSnapshot(f, options...)
	if err != nil {
		return nil, fmt.Errorf("prism: snapshot %s: %w", path, err)
	}
	return eng, nil
}

func snapshotConfig(options []OpenOption) (openConfig, error) {
	var cfg openConfig
	for _, o := range options {
		o(&cfg)
	}
	switch {
	case cfg.db != nil:
		return cfg, fmt.Errorf("prism: WithDatabase does not apply to snapshot loads — the database comes from the snapshot")
	case cfg.mondial != nil, cfg.imdb != nil, cfg.nba != nil:
		return cfg, fmt.Errorf("prism: dataset sizing options do not apply to snapshot loads — the data comes from the snapshot")
	}
	return cfg, nil
}
