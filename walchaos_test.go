package sjos

import (
	"context"
	"fmt"
	"testing"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
)

// The kill-point chaos matrix: one scripted mutation history is run with a
// crash (or torn write) injected at every write ordinal of the WAL file in
// turn, then recovered from the surviving bytes. The invariant under test
// is the write path's atomicity: whatever the kill point, the recovered
// database equals a state of the committed history — never a torn blend —
// and every optimization method agrees on it with the TwigStack oracle in
// every oracle lane.

// chaosScript is the mutation history; chaosStates[i] is the expected state
// after the first i mutations (distinct match counts, so a count identifies
// the state).
var chaosScript = []struct {
	op string
	id string
	n  int
}{
	{"ins", "a", 3}, {"ins", "b", 4}, {"del", "a", 0}, {"ins", "c", 5}, {"rep", "b", 6},
}

var chaosStates = []struct {
	count int
	ids   string
}{
	{0, "[]"},
	{3, "[a]"},
	{7, "[a b]"},
	{4, "[b]"},
	{9, "[b c]"},
	// Replace drops the old member and appends the new one, so b moves to
	// the end of span order.
	{11, "[c b]"},
}

// applyChaosScript runs the script until the first error, returning how
// many mutations reported success.
func applyChaosScript(db *Database) int {
	for i, s := range chaosScript {
		var err error
		switch s.op {
		case "ins":
			err = db.InsertString(s.id, orderXML(s.n))
		case "del":
			err = db.Delete(s.id)
		case "rep":
			err = db.ReplaceString(s.id, orderXML(s.n))
		}
		if err != nil {
			return i
		}
	}
	return len(chaosScript)
}

// chaosStateOf maps an observed match count back to the history state it
// represents (-1: no committed state has this count — a torn blend).
func chaosStateOf(count int) int {
	for i, st := range chaosStates {
		if st.count == count {
			return i
		}
	}
	return -1
}

// verifyChaosState checks the database is exactly chaosStates[want]: the
// recovered members, the TwigStack oracle's match count, and the plans of
// all five paper methods in every oracle lane against that oracle.
func verifyChaosState(t *testing.T, db *Database, want int, label string) {
	t.Helper()
	if got := fmt.Sprint(db.MemberIDs()); got != chaosStates[want].ids {
		t.Fatalf("%s: members %s, want %s", label, got, chaosStates[want].ids)
	}
	pat := MustParsePattern("//order//item/name")
	oracle := twigStackMatches(t, db, pat)
	if len(oracle) != chaosStates[want].count {
		t.Fatalf("%s: TwigStack finds %d matches, want %d", label, len(oracle), chaosStates[want].count)
	}
	for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP} {
		res, err := db.QueryContext(context.Background(), pat.String(),
			QueryOptions{ExecOptions: ExecOptions{Method: m}})
		if err != nil {
			t.Fatalf("%s: %v: %v", label, m, err)
		}
		checkOracleLanes(t, db, pat, res.Plan, oracle, fmt.Sprintf("%s: %v", label, m))
	}
}

// chaosWriteBudget measures how many WAL-file writes the full script costs,
// so the matrix can enumerate every ordinal.
func chaosWriteBudget(t *testing.T) int {
	t.Helper()
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	db, err := OpenDatabase(&Options{WALFile: ff, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ff.SetPolicy(faultfs.Policy{}) // reset counters past the bootstrap snapshot
	if n := applyChaosScript(db); n != len(chaosScript) {
		t.Fatalf("fault-free script stopped at %d", n)
	}
	w := int(ff.Stats().Writes)
	if w == 0 {
		t.Fatal("script wrote nothing to the WAL")
	}
	return w
}

// TestWALChaosKillPointMatrix crashes the WAL file after every write
// ordinal in turn: the surviving mutation must report failure (or, when the
// commit record landed before the lost fsync acknowledgement, may have
// committed), and recovery must land exactly on the committed prefix —
// either fully pre- or fully post-commit of the interrupted transaction.
func TestWALChaosKillPointMatrix(t *testing.T) {
	writes := chaosWriteBudget(t)
	t.Logf("script costs %d WAL writes; crashing after each", writes)
	for k := 1; k <= writes; k++ {
		ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
		db, err := OpenDatabase(&Options{WALFile: ff, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		ff.SetPolicy(faultfs.Policy{CrashAfterNWrites: k})
		committed := applyChaosScript(db)
		label := fmt.Sprintf("kill-point %d (committed %d)", k, committed)
		if committed == len(chaosScript) {
			t.Fatalf("%s: script survived the crash", label)
		}

		// The pre-crash handle must keep serving reads on its last
		// published snapshot, whatever state the write path is in.
		if got := chaosStateOf(countMatches(t, db, "//order//item/name")); got < committed || got > committed+1 {
			t.Fatalf("%s: live handle shows state %d", label, got)
		}

		rec, err := OpenDatabase(&Options{WALFile: ff.Inner()})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		got := chaosStateOf(countMatches(t, rec, "//order//item/name"))
		if got != committed && got != committed+1 {
			t.Fatalf("%s: recovered state %d, want %d or %d", label, got, committed, committed+1)
		}
		verifyChaosState(t, rec, got, label)

		// The recovered database accepts new work.
		if err := rec.InsertString("fresh", orderXML(2)); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, err)
		}
		if n := countMatches(t, rec, "//order//item/name"); n != chaosStates[got].count+2 {
			t.Fatalf("%s: post-recovery insert not visible", label)
		}
	}
}

// TestWALChaosTornWriteMatrix tears every WAL write ordinal in turn: the
// torn page persists a prefix and reports success, so the running process
// never notices — recovery must detect the damage by checksum and land on
// the longest intact committed prefix, never a torn blend.
func TestWALChaosTornWriteMatrix(t *testing.T) {
	writes := chaosWriteBudget(t)
	for k := 1; k <= writes; k++ {
		ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
		db, err := OpenDatabase(&Options{WALFile: ff, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		ff.SetPolicy(faultfs.Policy{TornWrite: k, Seed: int64(k)})
		committed := applyChaosScript(db)
		label := fmt.Sprintf("torn write %d (committed %d)", k, committed)
		if committed != len(chaosScript) {
			t.Fatalf("%s: torn write was visible to the writer", label)
		}
		rec, err := OpenDatabase(&Options{WALFile: ff.Inner()})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		got := chaosStateOf(countMatches(t, rec, "//order//item/name"))
		if got < 0 || got > committed {
			t.Fatalf("%s: recovered state %d not a committed prefix", label, got)
		}
		verifyChaosState(t, rec, got, label)
	}
}

// TestWALChaosStoreCrash crashes the store file (not the WAL) at every
// write ordinal: the WAL commit always precedes store writes, so the
// failing mutation is durably committed but unapplied — the handle must
// poison its write path (ErrBroken), keep serving the last snapshot, and
// recovery must show the interrupted mutation applied.
func TestWALChaosStoreCrash(t *testing.T) {
	// Budget: store writes over the script (store file faulted, WAL clean).
	wal := storage.NewMemFile()
	sf := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	db, err := OpenDatabase(&Options{WALFile: wal, PageFile: sf, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	sf.SetPolicy(faultfs.Policy{})
	if n := applyChaosScript(db); n != len(chaosScript) {
		t.Fatalf("fault-free script stopped at %d", n)
	}
	writes := int(sf.Stats().Writes)
	if writes == 0 {
		t.Fatal("script wrote nothing to the store")
	}

	for k := 1; k <= writes; k++ {
		wal := storage.NewMemFile()
		sf := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
		db, err := OpenDatabase(&Options{WALFile: wal, PageFile: sf, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		sf.SetPolicy(faultfs.Policy{CrashAfterNWrites: k})
		committed := applyChaosScript(db)
		label := fmt.Sprintf("store kill-point %d (committed %d)", k, committed)
		if committed == len(chaosScript) {
			t.Fatalf("%s: script survived the crash", label)
		}
		if !db.IngestStats().Broken {
			t.Fatalf("%s: write path not poisoned after post-commit failure", label)
		}
		if err := db.InsertString("more", orderXML(1)); err == nil {
			t.Fatalf("%s: poisoned handle accepted a mutation", label)
		}

		rec, err := OpenDatabase(&Options{WALFile: wal})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		got := chaosStateOf(countMatches(t, rec, "//order//item/name"))
		if got != committed+1 {
			t.Fatalf("%s: recovered state %d, want %d (the committed-but-unapplied mutation)",
				label, got, committed+1)
		}
		verifyChaosState(t, rec, got, label)
	}
}
