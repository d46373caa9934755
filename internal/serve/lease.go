// Lease records: how fleet workers claim shard work without a coordinator
// round-trip. A lease is created with O_EXCL, so one claimant wins; its
// owner renews it before the TTL elapses, and anyone may reclaim it once it
// expires. Epochs count ownership transfers, so a revived worker whose
// epoch the file no longer carries gets ErrLeaseLost instead of
// double-writing. Two workers may both remove-then-create an expired
// lease: the O_EXCL create picks one, and the loser's verdicts were
// deterministic anyway, so it cannot corrupt a merge.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"paracrash/internal/statefs"
)

// ErrLeaseHeld is returned by Claim when another worker holds an
// unexpired lease on the task.
var ErrLeaseHeld = errors.New("serve: lease held by another worker")

// ErrLeaseLost is returned by Renew and Release when the caller no longer
// owns the lease (it expired and another worker reclaimed it).
var ErrLeaseLost = errors.New("serve: lease lost")

// Lease is one claim on a unit of fleet work.
type Lease struct {
	// Task names the work unit: a shardID, e.g. "<job>-shard-2".
	Task string `json:"task"`
	// Owner is the claiming worker's ID.
	Owner string `json:"owner"`
	// Epoch counts ownership transfers; it increments on every reclaim.
	Epoch int `json:"epoch"`
	// Expires is the wall-clock deadline after which the lease is dead and
	// any worker may reclaim the task.
	Expires time.Time `json:"expires"`
}

// Expired reports whether the lease is past its deadline at now.
func (l Lease) Expired(now time.Time) bool { return now.After(l.Expires) }

// LeaseDir manages lease files under one shared directory. All methods are
// safe for concurrent use across processes — the directory is the lock.
type LeaseDir struct {
	dir string
	// now is the clock, swappable in tests to force expiry deterministically.
	now func() time.Time
}

// NewLeaseDir returns a lease manager over dir (created if needed).
func NewLeaseDir(dir string) (*LeaseDir, error) {
	if dir == "" {
		return nil, errors.New("serve: lease dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: lease dir: %w", err)
	}
	return &LeaseDir{dir: dir, now: time.Now}, nil
}

// path returns the lease file for a task.
func (d *LeaseDir) path(task string) string {
	return kindLease.path(d.dir, task)
}

// Claim attempts to acquire the task's lease for owner with the given TTL.
// It wins when no lease file exists (fresh claim, epoch 1) or the existing
// lease is expired (reclaim, epoch+1); an unexpired lease by another owner
// returns ErrLeaseHeld, and re-claiming a task the owner already holds
// renews it in place.
func (d *LeaseDir) Claim(task, owner string, ttl time.Duration) (*Lease, error) {
	now := d.now()
	path := d.path(task)
	cur, err := d.read(path)
	switch {
	case err == nil && cur.Owner == owner && !cur.Expired(now):
		// Already ours: refresh the deadline (idempotent claim after a
		// worker restart that kept its ID).
		cur.Expires = now.Add(ttl)
		if err := statefs.WriteJSON(siteLeaseRenew, path, cur); err != nil {
			return nil, err
		}
		return &cur, nil
	case err == nil && !cur.Expired(now):
		return nil, fmt.Errorf("%w: %s owns %s until %s", ErrLeaseHeld, cur.Owner, task, cur.Expires.Format(time.RFC3339))
	case err == nil || os.IsNotExist(err):
		// Free (cur is zero: epoch 1), or expired and anyone's to reclaim:
		// remove it, then O_EXCL-create; losing either race means another
		// worker won the claim.
		if err == nil {
			_ = os.Remove(path)
		}
		next := Lease{Task: task, Owner: owner, Epoch: cur.Epoch + 1, Expires: now.Add(ttl)}
		if err := d.create(path, next); err != nil {
			return nil, err
		}
		return &next, nil
	default:
		return nil, err
	}
}

// Renew extends the lease's deadline by ttl from now. The caller must still
// own the exact epoch it claimed; anything else — file gone, other owner,
// other epoch — is ErrLeaseLost.
func (d *LeaseDir) Renew(l *Lease, ttl time.Duration) error {
	err := d.owned(l)
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: lease file for %s is gone", ErrLeaseLost, l.Task)
	} else if err != nil {
		return err
	}
	l.Expires = d.now().Add(ttl)
	return statefs.WriteJSON(siteLeaseRenew, d.path(l.Task), *l)
}

// Release drops the lease so the task stops looking claimed. Releasing a
// lease the caller no longer owns returns ErrLeaseLost and removes nothing.
func (d *LeaseDir) Release(l *Lease) error {
	err := d.owned(l)
	if os.IsNotExist(err) {
		return nil // already gone — release is idempotent
	} else if err != nil {
		return err
	}
	return os.Remove(d.path(l.Task))
}

// owned reads l's lease file and fails with ErrLeaseLost unless it still
// carries l's owner and epoch; a missing file is a not-exist error.
func (d *LeaseDir) owned(l *Lease) error {
	cur, err := d.read(d.path(l.Task))
	if err == nil && (cur.Owner != l.Owner || cur.Epoch != l.Epoch) {
		err = fmt.Errorf("%w: %s is owned by %s (epoch %d)", ErrLeaseLost, l.Task, cur.Owner, cur.Epoch)
	}
	return err
}

// read parses one lease file: the one lease reader, the claimants' and
// fsck's. A file that exists but does not parse is reported as malformed,
// distinct from not-exist.
func (d *LeaseDir) read(path string) (Lease, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Lease{}, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return Lease{}, fmt.Errorf("serve: malformed lease %s: %w", path, err)
	}
	return l, nil
}

// create writes a brand-new lease file through the statefs O_EXCL
// discipline, the cross-process mutual-exclusion primitive: exactly one
// concurrent claimant succeeds, and the winning claim is fsynced along
// with its directory entry before the claimant proceeds.
func (d *LeaseDir) create(path string, l Lease) error {
	err := statefs.CreateExclusiveJSON(siteLeaseCreate, path, l)
	if err != nil && os.IsExist(err) {
		return fmt.Errorf("%w: lost the claim race for %s", ErrLeaseHeld, l.Task)
	}
	return err
}
