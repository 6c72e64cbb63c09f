package main

// The daemon's durability plane: the snapshot key file, the restore-time
// permission check and unsealing, the crash-durable snapshot write, and the
// one background loop that writes snapshots when they are due.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nodesampling/internal/shard"
)

// readSnapshotKey loads the AES-256 snapshot sealing key: either 32 raw
// bytes or 64 hex characters (surrounding whitespace ignored). The file
// must be private to its owner — a group- or world-accessible key would
// undo exactly the protection the sealed snapshot adds — so unlike the
// snapshot blob's permission check, this one always refuses.
func readSnapshotKey(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if perm := fi.Mode().Perm(); perm&0o077 != 0 {
		return nil, fmt.Errorf("snapshot key file %s is mode %04o; it must be accessible only by its owner (chmod 600)", path, perm)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(raw)); len(trimmed) == 2*shard.SnapshotKeyLen {
		if key, err := hex.DecodeString(trimmed); err == nil {
			return key, nil
		}
	}
	if len(raw) == shard.SnapshotKeyLen {
		return raw, nil
	}
	return nil, fmt.Errorf("snapshot key file %s must hold %d raw bytes or %d hex characters", path, shard.SnapshotKeyLen, 2*shard.SnapshotKeyLen)
}

// checkSnapshotPerms guards the restore path against salt exposure through
// an operator copy: durableWrite creates blobs 0600, but a blob copied or
// restored from backup can arrive group- or world-readable, leaking the
// secret partition salt (and, unencrypted, the whole sampling state) to
// every local user. By default the daemon warns and continues — the blob
// is still the operator's best recovery state; under -strict-snapshot-perms
// it refuses to boot.
func checkSnapshotPerms(path string, strict bool, warnw io.Writer) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if perm := fi.Mode().Perm(); perm&0o077 != 0 {
		if strict {
			return fmt.Errorf("snapshot %s is mode %04o (group/world-accessible) and embeds the secret partition salt; chmod 600 it or drop -strict-snapshot-perms", path, perm)
		}
		fmt.Fprintf(warnw, "warning: snapshot %s is mode %04o (group/world-accessible); it embeds the secret partition salt — chmod 600 it (-strict-snapshot-perms turns this warning into a refusal)\n", path, perm)
	}
	return nil
}

// unsealSnapshot maps an on-disk blob to the plaintext the restore path
// needs: sealed blobs require the key (a wrong key fails authentication
// loudly at boot, never a silently corrupt restore), while plaintext blobs
// from before encryption was enabled still restore — with a warning when a
// key is configured, since the next write will seal.
//
// oldKey is the rotation path (-snapshot-key-file-old): a blob that fails
// under the new key is retried under the previous one, so operators rotate
// sealed-snapshot keys without ever writing a plaintext intermediate.
//
// needReseal reports that the on-disk bytes lag the configured key —
// previous-key sealed, or plaintext with a key set — and the daemon should
// rewrite the blob (startSnapshotLoop) so the old key can be retired.
func unsealSnapshot(blob, key, oldKey []byte, warnw io.Writer) (plain []byte, needReseal bool, err error) {
	if shard.SnapshotSealed(blob) {
		if key == nil {
			return nil, false, errors.New("snapshot is encrypted; set -snapshot-key-file")
		}
		plain, err := shard.OpenSealedSnapshot(blob, key)
		if err != nil && oldKey != nil {
			if plain, err2 := shard.OpenSealedSnapshot(blob, oldKey); err2 == nil {
				fmt.Fprintln(warnw, "warning: snapshot restored under the previous key (-snapshot-key-file-old); the daemon re-seals it under the new key automatically")
				return plain, true, nil
			}
		}
		return plain, false, err
	}
	if key != nil {
		fmt.Fprintln(warnw, "warning: restoring a plaintext (pre-encryption) snapshot; the daemon re-seals it automatically")
		return blob, true, nil
	}
	return blob, false, nil
}

// writeSnapshot serialises the pool and installs it at snapshotPath,
// crash-durably: the blob is written to a temp file which is fsynced
// before the rename, and the directory is fsynced after it. Either alone
// is not enough — an unsynced file can rename into place and still be
// empty after power loss (the metadata outruns the data), and an unsynced
// rename can simply vanish, but a pre-rename blob that never got its
// rename is only a lost update, never a corrupt one. A failed write
// removes its orphaned temp file. Returns the blob size. It waits its turn
// at the admin gate — the form the snapshot loop and Close use.
func (d *daemon) writeSnapshot() (int, error) { return d.snapshot(true) }

// snapshot is writeSnapshot with the choice to wait at the admin gate or
// answer errAdminBusy (POST /snapshot).
func (d *daemon) snapshot(wait bool) (n int, err error) {
	err = d.admin(wait, func() error {
		n, err = d.storeSnapshot()
		return err
	})
	return n, err
}

// storeSnapshot is the write itself, for callers holding the admin gate.
// Every outcome is counted and logged here, so on-demand, periodic and
// shutdown writes report alike.
func (d *daemon) storeSnapshot() (n int, err error) {
	began := time.Now()
	defer func() {
		if err != nil {
			d.snapFailures.Add(1)
			d.logger.Error("snapshot failed", "path", d.snapshotPath, "error", err)
			return
		}
		took := time.Since(began)
		d.snapWrites.Add(1)
		d.snapDurNanos.Store(int64(took))
		d.latency.SnapshotWrite.Observe(took.Seconds())
		d.logger.Info("snapshot written", "path", d.snapshotPath,
			"bytes", n, "sealed", d.snapKey != nil, "duration", took)
	}()
	if d.snapshotPath == "" {
		return 0, errors.New("no -snapshot-path configured")
	}
	blob, err := d.pool.Snapshot()
	if err != nil {
		return 0, err
	}
	if d.snapKey != nil {
		// Seal before anything touches the disk: with a key configured, no
		// plaintext snapshot byte (the salt above all) ever leaves memory.
		if blob, err = shard.SealSnapshot(blob, d.snapKey); err != nil {
			return 0, err
		}
	}
	tmp := d.snapshotPath + ".tmp"
	if err := durableWrite(tmp, blob); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, d.snapshotPath); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	syncDir(filepath.Dir(d.snapshotPath))
	d.snapBytes.Store(int64(len(blob)))
	d.snapUnix.Store(time.Now().Unix())
	return len(blob), nil
}

// durableWrite writes blob to path (0600 — it embeds the pool's secret
// partition salt) and fsyncs it before returning, so the bytes are on
// stable storage before the caller renames the file into place.
func durableWrite(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-completed rename inside it survives
// power loss. Best effort: some filesystems refuse to sync directories,
// and the write itself already succeeded.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	_ = f.Close()
}

// resealRetryInterval paces re-seal retries after a failed automatic
// snapshot write (disk full, path gone); the first attempt is immediate.
const resealRetryInterval = time.Second

// startSnapshotLoop runs the durability plane's one background loop until
// the returned stop is called: it writes a snapshot every interval (0: no
// periodic writes), outcomes — success and failure alike — logged by
// snapshot. With reseal set the first write is due now and is retried every
// resealRetryInterval until one succeeds: the restore left the on-disk
// bytes behind the configured key (previous-key sealed, or plaintext from
// before encryption), and key rotation only completes when the old key
// stops opening the blob. An operator should not have to wait for the
// snapshot ticker — or remember a manual POST /snapshot — to retire the old
// key.
func (d *daemon) startSnapshotLoop(interval time.Duration, reseal bool) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		period := interval
		if reseal {
			period = resealRetryInterval
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for due := reseal; ; due = true {
			if due {
				_, err := d.writeSnapshot()
				if reseal && err == nil {
					d.logger.Info("snapshot re-sealed under the configured key", "path", d.snapshotPath)
					if interval <= 0 {
						return
					}
					reseal = false
					ticker.Reset(interval)
				}
			}
			select {
			case <-ticker.C:
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
