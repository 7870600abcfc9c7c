package membership

import (
	"reflect"
	"testing"
)

func TestInitial(t *testing.T) {
	c := Initial(3)
	if c.Epoch != 0 || c.N() != 3 || c.Quorum() != 2 || c.Mask() != 0b111 {
		t.Fatalf("Initial(3) = %+v", c)
	}
	for id := uint8(0); id < 3; id++ {
		if !c.Contains(id) {
			t.Fatalf("Initial(3) missing %d", id)
		}
	}
	if c.Contains(3) {
		t.Fatal("Initial(3) contains 3")
	}
}

func TestAddRemove(t *testing.T) {
	c := Initial(3)
	c4 := c.Add(3)
	if c4.Epoch != 1 || c4.N() != 4 || c4.Quorum() != 3 || !c4.Contains(3) {
		t.Fatalf("Add(3) = %+v", c4)
	}
	c3 := c4.Remove(1)
	if c3.Epoch != 2 || c3.N() != 3 || c3.Quorum() != 2 || c3.Contains(1) {
		t.Fatalf("Remove(1) = %+v", c3)
	}
	// Ids are stable, not renumbered.
	want := []uint8{0, 2, 3}
	if got := c3.MemberIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MemberIDs = %v, want %v", got, want)
	}
}

func TestEncodeDecode(t *testing.T) {
	c := Config{Epoch: 7, Members: 0b1101}
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("roundtrip = %+v, want %+v", got, c)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) accepted")
	}
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short value accepted")
	}
	if _, err := Decode(make([]byte, 10)); err == nil {
		t.Fatal("long value accepted")
	}
	if _, err := Decode(make([]byte, 6)); err == nil {
		t.Fatal("empty member set accepted")
	}
}

// TestTallyCountsDistinctMembers: duplicates do not count, and Missing
// names only members of the configuration asked about.
func TestTallyCountsDistinctMembers(t *testing.T) {
	c := Config{Members: 0b1011} // {0,1,3}: quorum 2
	tl := NewTally(c.N())
	if !tl.Add(1) || tl.Add(1) || tl.Add(1) {
		t.Fatal("duplicate reply counted as fresh")
	}
	if tl.Reached() {
		t.Fatal("one distinct reply reached a quorum of 3")
	}
	if got := tl.Missing(c); got != 0b1001 {
		t.Fatalf("Missing = %04b, want 1001 (node 2 is no member)", got)
	}
	tl.Add(3)
	if !tl.Reached() || tl.Full() || tl.Missing(c) != 0b0001 {
		t.Fatalf("after 2 of 3: reached=%v full=%v missing=%04b", tl.Reached(), tl.Full(), tl.Missing(c))
	}
	if !tl.Covers(0b1000|0b0010) || tl.Covers(0b1000) || tl.Covers(0b0101) {
		t.Fatal("Covers miscounted the subset")
	}
	if !tl.Reachable(0b1000) || tl.Reachable(0) {
		t.Fatal("Reachable miscounted the unheard member")
	}
}

// TestTallyRefit: a refit drops a removed member's vote, and resolves a
// round that was blocked only on a member the new configuration removed.
func TestTallyRefit(t *testing.T) {
	c := Initial(4) // quorum 3
	tl := NewTally(c.N())
	tl.Add(0)
	tl.Add(3)
	if tl.Reached() {
		t.Fatal("2 of 4 reached")
	}
	shrunk := c.Remove(1) // {0,2,3}: quorum 2, node 1 was the blocker
	tl.Refit(shrunk)
	if !tl.Reached() || tl.Missing(shrunk) != 0b0100 {
		t.Fatalf("after removing the blocker: reached=%v missing=%04b", tl.Reached(), tl.Missing(shrunk))
	}
	// Removing a member that DID vote takes its vote away.
	tl.Refit(shrunk.Remove(3)) // {0,2}: quorum 2, only node 0 counted
	if tl.Reached() {
		t.Fatal("a removed member's vote still counts")
	}
	if tl.Add(3) && tl.Missing(shrunk.Remove(3)) != 0b0100 {
		t.Fatal("Missing names a removed member")
	}
}
