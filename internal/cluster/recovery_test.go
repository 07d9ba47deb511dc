package cluster

import (
	"testing"
)

// TestFailoverFailbackIdempotent: the failover/failback pair must be
// idempotent and symmetric so the recovery loop can fire twice without
// double-counting or flapping state.
func TestFailoverFailbackIdempotent(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)

	if r.OnBackup(0) {
		t.Fatal("fresh region must serve from the main cluster")
	}
	if !r.FailoverCluster(0) {
		t.Fatal("first failover must report a switch")
	}
	if !r.OnBackup(0) {
		t.Fatal("failover did not move traffic to the backup")
	}
	if r.FailoverCluster(0) {
		t.Fatal("second failover must be a no-op")
	}

	if !r.FailbackCluster(0) {
		t.Fatal("first failback must report a switch")
	}
	if r.OnBackup(0) {
		t.Fatal("failback did not return traffic to the main cluster")
	}
	if r.FailbackCluster(0) {
		t.Fatal("second failback must be a no-op")
	}
}

// TestFailoverServesFromBackup: after failover the backup's tables answer
// traffic, and after failback the main cluster answers again.
func TestFailoverServesFromBackup(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	installTenant(t, r, 0, 100)
	raw := buildPacket(t, 100, "192.168.0.1", "192.168.0.5")

	if _, err := r.ProcessPacket(raw, t0()); err != nil {
		t.Fatalf("pre-failover: %v", err)
	}
	r.FailoverCluster(0)
	if _, err := r.ProcessPacket(raw, t0()); err != nil {
		t.Fatalf("on backup (hot standby must hold mirrored tables): %v", err)
	}
	r.FailbackCluster(0)
	if _, err := r.ProcessPacket(raw, t0()); err != nil {
		t.Fatalf("post-failback: %v", err)
	}
}

// TestSetDegradedIdempotent mirrors the failover contract for degraded mode.
func TestSetDegradedIdempotent(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 1)

	if !r.SetDegraded(0, true) {
		t.Fatal("first degrade must report a change")
	}
	if !r.DegradedCluster(0) {
		t.Fatal("cluster not marked degraded")
	}
	if r.SetDegraded(0, true) {
		t.Fatal("second degrade must be a no-op")
	}
	if !r.SetDegraded(0, false) {
		t.Fatal("first undegrade must report a change")
	}
	if r.SetDegraded(0, false) {
		t.Fatal("second undegrade must be a no-op")
	}
}

// TestAccountEntriesCapacityAndMirror: intent accounting enforces the entry
// capacity, mirrors into the backup's bookkeeping, and releases cleanly.
func TestAccountEntriesCapacityAndMirror(t *testing.T) {
	cfg := smallConfig()
	cfg.EntryCapacity = 10
	r := NewRegion(cfg, 1, 0)
	c := r.Clusters[0]

	if err := c.AccountEntries(100, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.AccountEntries(100, 3); err != ErrOverCapacity {
		t.Fatalf("over-capacity reservation: got %v, want ErrOverCapacity", err)
	}
	if got := c.EntryCount(); got != 8 {
		t.Fatalf("failed reservation must not leak: entries = %d, want 8", got)
	}
	if !c.HasTenant(100) {
		t.Fatal("tenant not recorded in main bookkeeping")
	}
	if c.Backup == nil || !c.Backup.HasTenant(100) {
		t.Fatal("tenant not mirrored into the backup's bookkeeping")
	}
	if got := c.Backup.EntryCount(); got != 8 {
		t.Fatalf("backup entries = %d, want 8", got)
	}

	// Release: negative accounting drains both sides and drops the tenant.
	if err := c.AccountEntries(100, -8); err != nil {
		t.Fatal(err)
	}
	if c.EntryCount() != 0 || c.Backup.EntryCount() != 0 {
		t.Fatalf("release left entries: main=%d backup=%d", c.EntryCount(), c.Backup.EntryCount())
	}
	if c.HasTenant(100) || c.Backup.HasTenant(100) {
		t.Fatal("released tenant still recorded")
	}
	// Over-release clamps at zero instead of going negative.
	if err := c.AccountEntries(100, -5); err != nil {
		t.Fatal(err)
	}
	if c.EntryCount() != 0 {
		t.Fatalf("over-release went negative: %d", c.EntryCount())
	}
}

// TestAllNodesCoversBothReplicas: AllNodes must return main then backup
// nodes so per-node pushes reach the hot standby too.
func TestAllNodesCoversBothReplicas(t *testing.T) {
	r := NewRegion(smallConfig(), 1, 0)
	c := r.Clusters[0]
	all := c.AllNodes()
	want := len(c.Nodes) + len(c.Backup.Nodes)
	if len(all) != want {
		t.Fatalf("AllNodes = %d nodes, want %d (main + backup)", len(all), want)
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n.ID] {
			t.Fatalf("node %s listed twice", n.ID)
		}
		seen[n.ID] = true
	}
	// Capacity is per replica set, not the sum over both.
	if c.Capacity() != smallConfig().EntryCapacity {
		t.Fatalf("Capacity = %d, want %d", c.Capacity(), smallConfig().EntryCapacity)
	}
}
