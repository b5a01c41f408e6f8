package sjos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"sjos/internal/admission"
	"sjos/internal/histogram"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// The write path. An ingestion-enabled database (Options.WALFile) stores its
// documents as members of an appendable forest over a segmented store, and
// every mutation follows one commit protocol:
//
//  1. Stage: the new member is serialised into sealed page after-images
//     without touching the store file (deletes stage nothing — they only
//     flip a segment dead).
//  2. Log: a WAL transaction (begin record with the member documents, the
//     page after-images, a commit record) is appended and fsynced. The
//     mutation is durable exactly when the commit record is; a torn or
//     missing tail is discarded on recovery.
//  3. Apply: the images are written to the store file and a new immutable
//     (document, store) snapshot is published atomically. In-flight queries
//     finish on the snapshot they pinned.
//
// A failure before the WAL commit leaves the database unchanged and usable.
// A failure after it (the apply could not complete, or the fsync outcome is
// unknowable) poisons the write path — mutations fail with ErrBroken, reads
// continue on the last published snapshot, and reopening from the WAL
// recovers the exact committed state.

// SeedDocID is the member ID under which a document passed to LoadXML /
// OpenImage / GenerateDataset is registered when ingestion is enabled.
const SeedDocID = "doc"

// DefaultCompactThreshold is the dead-node fraction past which a delete or
// replace triggers automatic compaction (see Options.CompactThreshold).
const DefaultCompactThreshold = 0.5

// ErrNoWAL is returned by the mutation entry points of a database built
// without Options.WALFile.
var ErrNoWAL = errors.New("sjos: write path disabled (database built without Options.WALFile)")

// ErrBroken means a mutation failed after its WAL commit (or with an
// unknowable fsync outcome): the in-memory state may trail the durable log,
// so the write path is poisoned. Reads continue on the last published
// snapshot; reopening from the WAL recovers the committed state.
var ErrBroken = errors.New("sjos: write path broken after a committed mutation; reopen from the WAL to recover")

// memberState is the write path's bookkeeping for one member document: the
// standalone document (statistics and snapshot re-logging need it), its node
// span in the forest, its segment index in the store, and its statistics
// part. Dead members stay in the table (spans stay allocated until
// compaction) but leave every published view.
type memberState struct {
	id   string
	doc  *xmltree.Document
	span xmltree.DocSpan
	seg  int
	part *histogram.Stats
	dead bool
}

// ingestState is a database's write-path state, guarded by mu (single
// writer; readers never take it — they use the published snapshot).
type ingestState struct {
	mu sync.Mutex

	// wal is the durable log; nil on corpus replica followers, which apply
	// the primary's already-committed mutations without logging.
	wal    *storage.WAL
	forest *xmltree.Document
	// members is append-only between compactions, in span order; byID
	// indexes the live ones.
	members []*memberState
	byID    map[string]int

	// broken poisons the write path (see ErrBroken).
	broken error

	// Construction-time settings compaction and recovery rebuilds reuse.
	grid        int
	poolFrames  int
	sopts       storage.StoreOptions
	retry       RetryPolicy
	compactThr  float64
	compactFile func() PageFile
	compactions int
}

// seedDoc is one (ID, document) pair a fresh ingestion database starts with.
type seedDoc struct {
	id  string
	doc *xmltree.Document
}

// OpenDatabase opens an ingestion-enabled database from its write-ahead log:
// with an empty WAL it starts empty (the log is seeded with an empty base
// snapshot); with a WAL holding committed transactions it recovers the exact
// committed state — the crash-recovery entry point. opts.WALFile (or the
// WALPath convenience) is required; the store file (Options.PageFile /
// DiskPath / memory) must be fresh, as recovery rebuilds it from the log.
func OpenDatabase(opts *Options) (*Database, error) {
	wal, err := resolveWALFile(opts)
	if err != nil {
		return nil, err
	}
	if wal == nil {
		return nil, fmt.Errorf("sjos: OpenDatabase requires Options.WALFile or Options.WALPath")
	}
	wopts := *opts
	wopts.WALFile = wal
	return buildIngestDatabase(nil, &wopts)
}

// buildIngestDatabase constructs an ingestion-enabled database. With an
// empty WAL the seeds become the initial members and the log is seeded with
// a base snapshot holding them; with a non-empty WAL the state is recovered
// from the log instead, and seeds must be absent (the log is self-contained;
// mixing both would be ambiguous).
func buildIngestDatabase(seeds []seedDoc, opts *Options) (*Database, error) {
	wal, txns, err := storage.OpenWAL(opts.WALFile)
	if err != nil {
		return nil, fmt.Errorf("sjos: opening WAL: %w", err)
	}
	if len(txns) > 0 && len(seeds) > 0 {
		return nil, fmt.Errorf("sjos: WAL already holds %d committed transactions; open without documents (OpenDatabase) to recover", len(txns))
	}
	ing := newIngestState(wal, opts)
	return ing.open(opts, admission.New(opts.MaxInFlight, opts.QueueDepth), func(file PageFile) (*storage.Store, error) {
		if file.NumPages() != 0 {
			return nil, fmt.Errorf("sjos: ingestion store file must be fresh (the WAL is the durable state); got %d pages", file.NumPages())
		}
		if len(txns) > 0 {
			return ing.recover(txns, file)
		}
		return ing.bootstrap(seeds, file)
	})
}

// newFollowerIngest builds the write-path state for a corpus replica
// follower: same members and store as the primary, no WAL of its own.
func newFollowerIngest(seeds []seedDoc, opts *Options) (*Database, error) {
	ing := newIngestState(nil, opts)
	return ing.open(opts, admission.New(0, 0), func(file PageFile) (*storage.Store, error) {
		return ing.bootstrap(seeds, file)
	})
}

// newIngestState captures the construction-time settings of a write path,
// with the compaction defaults applied; wal is nil on replica followers.
func newIngestState(wal *storage.WAL, opts *Options) *ingestState {
	ing := &ingestState{
		wal:         wal,
		byID:        make(map[string]int),
		grid:        opts.HistogramGrid,
		poolFrames:  opts.PoolFrames,
		sopts:       storage.StoreOptions{NoValueIndex: opts.NoValueIndex},
		retry:       opts.Retry,
		compactThr:  opts.CompactThreshold,
		compactFile: opts.CompactFile,
	}
	if ing.compactThr == 0 {
		ing.compactThr = DefaultCompactThreshold
	}
	if ing.compactFile == nil {
		ing.compactFile = func() PageFile { return storage.NewMemFile() }
	}
	return ing
}

// open resolves the store file, lays the initial store down on it with
// build (bootstrap or WAL recovery), applies the retry policy and publishes
// the first snapshot as a new Database whose service admits through admit.
func (ing *ingestState) open(opts *Options, admit *admission.Controller, build func(PageFile) (*storage.Store, error)) (*Database, error) {
	file, err := storeFile(opts)
	if err != nil {
		return nil, err
	}
	store, err := build(file)
	if err != nil {
		return nil, err
	}
	if ing.retry != (RetryPolicy{}) {
		store.Pool().SetRetryPolicy(ing.retry)
	}
	svc := newService(nil, opts.HistogramGrid, opts.PlanCacheCapacity)
	svc.admit = admit
	db := &Database{
		dbState: &dbState{
			model:  opts.model(),
			svc:    svc,
			ingest: ing,
		},
	}
	db.publishLocked(ing.forest, store)
	return db, nil
}

// bootstrap lays a fresh forest store down for the seed members and, when a
// WAL is attached, seeds the log with a base snapshot holding them — the
// record recovery replays from, making the WAL self-contained.
func (ing *ingestState) bootstrap(seeds []seedDoc, file PageFile) (*storage.Store, error) {
	forest := xmltree.NewForest()
	store, err := storage.NewForestStore(file, forest, ing.poolFrames, ing.sopts)
	if err != nil {
		return nil, err
	}
	var walDocs []storage.WALDoc
	for _, sd := range seeds {
		if sd.id == "" {
			return nil, fmt.Errorf("sjos: document needs a non-empty ID")
		}
		if _, dup := ing.byID[sd.id]; dup {
			return nil, fmt.Errorf("sjos: duplicate document ID %q", sd.id)
		}
		nf, span, err := xmltree.AppendMember(forest, sd.doc)
		if err != nil {
			return nil, err
		}
		stage, err := store.StageSegment(nf, span)
		if err != nil {
			return nil, err
		}
		store, err = store.CommitStage(stage)
		if err != nil {
			return nil, err
		}
		forest = nf
		ing.byID[sd.id] = len(ing.members)
		ing.members = append(ing.members, &memberState{
			id:   sd.id,
			doc:  sd.doc,
			span: span,
			seg:  store.NumSegments() - 1,
			part: histogram.Build(sd.doc, ing.grid),
		})
		img, err := docImage(sd.doc)
		if err != nil {
			return nil, err
		}
		walDocs = append(walDocs, storage.WALDoc{ID: sd.id, Image: img})
	}
	if ing.wal != nil {
		if _, err := ing.wal.Append(storage.WALSnapshot, walDocs, nil); err != nil {
			return nil, fmt.Errorf("sjos: seeding WAL base snapshot: %w", err)
		}
	}
	ing.forest = forest
	return store, nil
}

// recover rebuilds the state from the committed WAL transactions: the member
// set of the last base snapshot is rebuilt through the ordinary staging path
// (the layout is a pure function of the append sequence), then each later
// transaction is replayed the same way — with the recomputed page images
// verified byte-for-byte against the logged ones before they are applied.
// The result is exactly the pre-crash committed state.
func (ing *ingestState) recover(txns []storage.WALTxn, file PageFile) (*storage.Store, error) {
	base := -1
	for i, tx := range txns {
		if tx.Op == storage.WALSnapshot {
			base = i
		}
	}
	if base < 0 {
		return nil, fmt.Errorf("sjos: WAL holds no base snapshot; not a database log")
	}
	forest := xmltree.NewForest()
	store, err := storage.NewForestStore(file, forest, ing.poolFrames, ing.sopts)
	if err != nil {
		return nil, err
	}

	appendMember := func(id string, img []byte, logged []storage.WALPageImage) error {
		doc, err := xmltree.ReadImage(bytes.NewReader(img))
		if err != nil {
			return fmt.Errorf("sjos: recovering document %q: %w", id, err)
		}
		nf, span, err := xmltree.AppendMember(forest, doc)
		if err != nil {
			return err
		}
		stage, err := store.StageSegment(nf, span)
		if err != nil {
			return err
		}
		if logged != nil {
			if err := stage.VerifyStage(logged); err != nil {
				return fmt.Errorf("sjos: recovering document %q: %w", id, err)
			}
		}
		store, err = store.CommitStage(stage)
		if err != nil {
			return err
		}
		forest = nf
		ing.byID[id] = len(ing.members)
		ing.members = append(ing.members, &memberState{
			id:   id,
			doc:  doc,
			span: span,
			seg:  store.NumSegments() - 1,
			part: histogram.Build(doc, ing.grid),
		})
		return nil
	}
	dropMember := func(id string, op string) error {
		slot, ok := ing.byID[id]
		if !ok {
			return fmt.Errorf("sjos: WAL %s of unknown document %q", op, id)
		}
		m := ing.members[slot]
		ns, err := store.DropSegment(forest, m.seg)
		if err != nil {
			return err
		}
		store = ns
		m.dead = true
		delete(ing.byID, id)
		return nil
	}

	for _, doc := range txns[base].Docs {
		if err := appendMember(doc.ID, doc.Image, nil); err != nil {
			return nil, err
		}
	}
	for _, tx := range txns[base+1:] {
		switch tx.Op {
		case storage.WALInsert:
			if err := appendMember(tx.Docs[0].ID, tx.Docs[0].Image, tx.Images); err != nil {
				return nil, err
			}
		case storage.WALDelete:
			if err := dropMember(tx.Docs[0].ID, "delete"); err != nil {
				return nil, err
			}
		case storage.WALReplace:
			id := tx.Docs[0].ID
			if err := dropMember(id, "replace"); err != nil {
				return nil, err
			}
			if err := appendMember(id, tx.Docs[0].Image, tx.Images); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sjos: WAL replay: unexpected op %d", tx.Op)
		}
	}
	ing.forest = forest
	return store, nil
}

// docImage serialises a member document for WAL logging.
func docImage(doc *xmltree.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := xmltree.WriteImage(doc, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// publishLocked installs a new snapshot and the statistics merged over the
// live members' parts — the incremental statistics maintenance: each
// mutation touches only the changed member's part and re-merges (the merge
// is per-tag estimate arithmetic, not a histogram rebuild). The service's
// stats-version bump invalidates every cached plan. Caller holds ing.mu (or
// is still constructing the database).
func (db *Database) publishLocked(forest *xmltree.Document, store *storage.Store) {
	ing := db.ingest
	var members []memberView
	idx := make(map[string]int)
	var parts []*histogram.Stats
	for _, m := range ing.members {
		if m.dead {
			continue
		}
		idx[m.id] = len(members)
		members = append(members, memberView{id: m.id, span: m.span})
		parts = append(parts, m.part)
	}
	db.snap.Store(&dbSnap{doc: forest, store: store, members: members, memberIdx: idx})
	db.svc.setStats(histogram.Merge(parts))
}

// rebuildIngestStatsLocked recomputes every live member's histogram part
// from its document and re-installs the merged statistics. Caller holds
// ing.mu.
func (db *Database) rebuildIngestStatsLocked() {
	ing := db.ingest
	var parts []*histogram.Stats
	for _, m := range ing.members {
		if m.dead {
			continue
		}
		m.part = histogram.Build(m.doc, ing.grid)
		parts = append(parts, m.part)
	}
	db.svc.setStats(histogram.Merge(parts))
}

// brokenErr wraps the poisoning cause under ErrBroken.
func (ing *ingestState) brokenErr() error {
	return fmt.Errorf("%w: %v", ErrBroken, ing.broken)
}

// Insert parses an XML document from r and commits it under id. The
// document is queryable exactly when Insert returns nil; on error the
// database is unchanged (unless the error wraps ErrBroken — see ErrBroken).
func (db *Database) Insert(id string, r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return db.insertDoc(id, doc)
}

// InsertString is Insert over a string.
func (db *Database) InsertString(id, src string) error {
	return db.Insert(id, strings.NewReader(src))
}

func (db *Database) insertDoc(id string, doc *xmltree.Document) error {
	if db.ingest == nil {
		return ErrNoWAL
	}
	if id == "" {
		return fmt.Errorf("sjos: document needs a non-empty ID")
	}
	release, err := db.svc.admit.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer release()
	ing := db.ingest
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.broken != nil {
		return ing.brokenErr()
	}
	if _, dup := ing.byID[id]; dup {
		return fmt.Errorf("sjos: document %q already exists (use Replace)", id)
	}
	return db.appendLocked(storage.WALInsert, id, doc, -1)
}

// Delete commits the removal of the document with the given id. Its
// segment's postings leave every index view; the pages are reclaimed by the
// next compaction (automatic past the dead-fraction threshold).
func (db *Database) Delete(id string) error {
	if db.ingest == nil {
		return ErrNoWAL
	}
	release, err := db.svc.admit.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer release()
	ing := db.ingest
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.broken != nil {
		return ing.brokenErr()
	}
	slot, ok := ing.byID[id]
	if !ok {
		return fmt.Errorf("sjos: no document %q", id)
	}
	if ing.wal != nil {
		if _, err := ing.wal.Append(storage.WALDelete, []storage.WALDoc{{ID: id}}, nil); err != nil {
			return db.walAppendFailed(err)
		}
	}
	m := ing.members[slot]
	sn := db.view()
	store, err := sn.store.DropSegment(ing.forest, m.seg)
	if err != nil {
		// The delete is durably committed but could not be applied — only a
		// programming error can get here (DropSegment does no I/O).
		ing.broken = err
		return ing.brokenErr()
	}
	m.dead = true
	delete(ing.byID, id)
	db.publishLocked(ing.forest, store)
	return db.maybeCompactLocked(store)
}

// Replace atomically substitutes the document under id: one committed
// transaction removes the old version and inserts the new one — readers see
// either both or neither.
func (db *Database) Replace(id string, r io.Reader) error {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return err
	}
	return db.replaceDoc(id, doc)
}

// ReplaceString is Replace over a string.
func (db *Database) ReplaceString(id, src string) error {
	return db.Replace(id, strings.NewReader(src))
}

func (db *Database) replaceDoc(id string, doc *xmltree.Document) error {
	if db.ingest == nil {
		return ErrNoWAL
	}
	release, err := db.svc.admit.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer release()
	ing := db.ingest
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.broken != nil {
		return ing.brokenErr()
	}
	slot, ok := ing.byID[id]
	if !ok {
		return fmt.Errorf("sjos: no document %q (use Insert)", id)
	}
	return db.appendLocked(storage.WALReplace, id, doc, slot)
}

// appendLocked runs the commit protocol for a mutation that appends a
// member: stage, log, fsync, apply, publish. oldSlot >= 0 makes it a
// replace (the old member's segment is dropped in the same transaction).
// Caller holds ing.mu.
func (db *Database) appendLocked(op storage.WALOp, id string, doc *xmltree.Document, oldSlot int) error {
	ing := db.ingest
	sn := db.view()
	forest, span, err := xmltree.AppendMember(ing.forest, doc)
	if err != nil {
		return err
	}
	stage, err := sn.store.StageSegment(forest, span)
	if err != nil {
		return err
	}
	if ing.wal != nil {
		img, err := docImage(doc)
		if err != nil {
			return err
		}
		if _, err := ing.wal.Append(op, []storage.WALDoc{{ID: id, Image: img}}, stage.Images()); err != nil {
			return db.walAppendFailed(err)
		}
	}
	// Point of no return: the transaction is durable. Any failure from here
	// on leaves the in-memory state behind the log — poison the write path.
	store, err := sn.store.CommitStage(stage)
	if err != nil {
		ing.broken = err
		return ing.brokenErr()
	}
	if oldSlot >= 0 {
		old := ing.members[oldSlot]
		store2, err := store.DropSegment(forest, old.seg)
		if err != nil {
			ing.broken = err
			return ing.brokenErr()
		}
		store = store2
		old.dead = true
		delete(ing.byID, id)
	}
	ing.forest = forest
	ing.byID[id] = len(ing.members)
	ing.members = append(ing.members, &memberState{
		id:   id,
		doc:  doc,
		span: span,
		seg:  store.NumSegments() - 1,
		part: histogram.Build(doc, ing.grid),
	})
	db.publishLocked(forest, store)
	return db.maybeCompactLocked(store)
}

// walAppendFailed classifies a WAL append error: ErrWALBroken means the
// commit's durability is unknowable (poison); anything else failed cleanly
// before the commit record, leaving the database unchanged and usable.
func (db *Database) walAppendFailed(err error) error {
	if errors.Is(err, storage.ErrWALBroken) {
		db.ingest.broken = err
		return db.ingest.brokenErr()
	}
	return err
}

// maybeCompactLocked triggers compaction when the dead fraction crossed the
// threshold. Caller holds ing.mu.
func (db *Database) maybeCompactLocked(store *storage.Store) error {
	ing := db.ingest
	if ing.compactThr < 0 || store.DeadFraction() < ing.compactThr {
		return nil
	}
	return db.compactLocked()
}

// Compact rewrites the store without its dead segments: the live members are
// re-logged as a fresh WAL base snapshot (bounding recovery replay), then
// rebuilt into a fresh store file through the same staging path as normal
// appends. Published snapshots in flight stay valid; the new snapshot's
// member spans are renumbered.
func (db *Database) Compact() error {
	if db.ingest == nil {
		return ErrNoWAL
	}
	release, err := db.svc.admit.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer release()
	db.ingest.mu.Lock()
	defer db.ingest.mu.Unlock()
	if db.ingest.broken != nil {
		return db.ingest.brokenErr()
	}
	return db.compactLocked()
}

func (db *Database) compactLocked() error {
	ing := db.ingest
	live := make([]*memberState, 0, len(ing.members))
	for _, m := range ing.members {
		if !m.dead {
			live = append(live, m)
		}
	}
	if ing.wal != nil {
		walDocs := make([]storage.WALDoc, len(live))
		for i, m := range live {
			img, err := docImage(m.doc)
			if err != nil {
				return err
			}
			walDocs[i] = storage.WALDoc{ID: m.id, Image: img}
		}
		// A snapshot changes no logical state: failing to append it leaves
		// the previous log (and the live database) fully intact.
		if _, err := ing.wal.Append(storage.WALSnapshot, walDocs, nil); err != nil {
			return db.walAppendFailed(err)
		}
	}

	forest := xmltree.NewForest()
	file := ing.compactFile()
	store, err := storage.NewForestStore(file, forest, ing.poolFrames, ing.sopts)
	if err != nil {
		return fmt.Errorf("sjos: compaction rebuild: %w", err)
	}
	members := make([]*memberState, 0, len(live))
	byID := make(map[string]int, len(live))
	for _, m := range live {
		nf, span, err := xmltree.AppendMember(forest, m.doc)
		if err != nil {
			return fmt.Errorf("sjos: compaction rebuild: %w", err)
		}
		stage, err := store.StageSegment(nf, span)
		if err != nil {
			return fmt.Errorf("sjos: compaction rebuild: %w", err)
		}
		store, err = store.CommitStage(stage)
		if err != nil {
			return fmt.Errorf("sjos: compaction rebuild: %w", err)
		}
		forest = nf
		byID[m.id] = len(members)
		members = append(members, &memberState{
			id:   m.id,
			doc:  m.doc,
			span: span,
			seg:  store.NumSegments() - 1,
			part: m.part,
		})
	}
	if ing.retry != (RetryPolicy{}) {
		store.Pool().SetRetryPolicy(ing.retry)
	}
	ing.forest = forest
	ing.members = members
	ing.byID = byID
	ing.compactions++
	db.publishLocked(forest, store)
	return nil
}

// IngestEnabled reports whether the database was built with a write path
// (Options.WALFile, or as a corpus ingestion replica).
func (db *Database) IngestEnabled() bool { return db.ingest != nil }

// NumMembers returns the number of live member documents (1 for a static
// database — its single document).
func (db *Database) NumMembers() int {
	sn := db.view()
	if sn.members == nil {
		return 1
	}
	return len(sn.members)
}

// MemberIDs returns the live member document IDs in node-range order (the
// order their matches appear in query results). Static databases return nil.
func (db *Database) MemberIDs() []string {
	sn := db.view()
	if sn.members == nil {
		return nil
	}
	out := make([]string, len(sn.members))
	for i, m := range sn.members {
		out[i] = m.id
	}
	return out
}

// HasMember reports whether a live member with the given ID exists.
func (db *Database) HasMember(id string) bool {
	sn := db.view()
	if sn.memberIdx == nil {
		return false
	}
	_, ok := sn.memberIdx[id]
	return ok
}

// memberOfSpans maps a node ID to the index of the span containing it (the
// spans are disjoint and ascending), or -1.
func memberOfSpans(spans []xmltree.DocSpan, id NodeID) int {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].First > id }) - 1
	if i < 0 || !spans[i].Contains(id) {
		return -1
	}
	return i
}

// MemberOf returns the ID of the live member document owning a matched
// node, for attributing query matches to documents. ok is false for static
// databases and for nodes of no live member (the synthetic root).
func (db *Database) MemberOf(id NodeID) (string, bool) {
	sn := db.view()
	for _, m := range sn.members {
		if m.span.Contains(id) {
			return m.id, true
		}
	}
	return "", false
}

// IngestStats is a snapshot of the write path's state.
type IngestStats struct {
	// Members is the live member count; DeadFraction the fraction of stored
	// nodes belonging to deleted members (compaction reclaims them).
	Members      int
	DeadFraction float64
	// WALPages is the write-ahead log's current length in pages.
	WALPages int
	// Compactions counts store rewrites (explicit and automatic).
	Compactions int
	// StatsVersion is the statistics version mutations bump (plan-cache
	// entries are keyed by it).
	StatsVersion uint64
	// Broken reports a poisoned write path (see ErrBroken).
	Broken bool
}

// IngestStats returns a snapshot of the write path's state (zero value for
// databases without one).
func (db *Database) IngestStats() IngestStats {
	if db.ingest == nil {
		return IngestStats{}
	}
	ing := db.ingest
	ing.mu.Lock()
	defer ing.mu.Unlock()
	_, ver := db.svc.snapshot()
	st := IngestStats{
		Members:      0,
		DeadFraction: db.view().store.DeadFraction(),
		Compactions:  ing.compactions,
		StatsVersion: ver,
		Broken:       ing.broken != nil,
	}
	for _, m := range ing.members {
		if !m.dead {
			st.Members++
		}
	}
	if ing.wal != nil {
		st.WALPages = int(ing.wal.Tail())
	}
	return st
}

// statsParts returns the live members' histogram parts — the corpus merges
// these across shards.
func (db *Database) statsParts() []*histogram.Stats {
	if db.ingest == nil {
		return nil
	}
	db.ingest.mu.Lock()
	defer db.ingest.mu.Unlock()
	var parts []*histogram.Stats
	for _, m := range db.ingest.members {
		if !m.dead {
			parts = append(parts, m.part)
		}
	}
	return parts
}
