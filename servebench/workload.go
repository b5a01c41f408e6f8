package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"sjos/internal/datagen"
	"sjos/internal/xmltree"
)

// workload is one traffic mix. Its offered rates are fixed constants — about
// half the capacity measured when the benchmark was defined — and are never
// recomputed per run, so two commits are always offered the same load.
type workload struct {
	name    string
	dataset string  // "pers" or "dblp"
	docs    int     // corpus documents loaded at setup
	scale   float64 // datagen scale of each corpus document
	// queryRate is the fixed offered query rate (queries/s).
	queryRate float64
	// mutationRate is the fixed offered mutation rate (ops/s) on a
	// connection of its own, and mutationScale the datagen scale of the
	// documents the mutation stream inserts and replaces.
	mutationRate  float64
	mutationScale float64
	// churn runs the mutation stream open loop beside the fixed-rate query
	// phase. Read-only workloads instead send probe inserts one at a time
	// after the query phases (a closed-loop write probe), and mutationRate
	// only spaces their plan.
	churn bool
	probe int
	// p95Limit is the latency limit query_capacity_qps is judged against.
	p95Limit time.Duration
}

// shards is the xqserve -shards setting of every workload.
const shards = 4

var workloads = []workload{
	{name: "pers-materialise", dataset: "pers", docs: 8, scale: 0.125,
		queryRate: 14, p95Limit: 250 * time.Millisecond,
		mutationRate: 40, mutationScale: 0.125, probe: 200},
	{name: "dblp-selective", dataset: "dblp", docs: 8, scale: 1,
		queryRate: 110, p95Limit: 60 * time.Millisecond,
		mutationRate: 20, mutationScale: 0.02, probe: 150},
	{name: "pers-churn", dataset: "pers", docs: 16, scale: 1,
		queryRate: 120, p95Limit: 200 * time.Millisecond,
		mutationRate: 20, mutationScale: 0.25, churn: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent stream seed from the run seed and a label
// (splitmix64 over the label bytes), so adding a stream never shifts another.
func subSeed(seed int64, label string) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		x ^= uint64(c)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}

// document is one generated XML document.
type document struct {
	id  string
	xml string
}

func genDoc(dataset string, scale float64, seed int64) (string, error) {
	d, err := datagen.Generate(datagen.Config{Name: dataset, Scale: scale, Seed: seed})
	if err != nil {
		return "", err
	}
	return xmltree.SerializeString(d)
}

// corpusDocs generates the workload's initial documents. They do not depend
// on the run seed: document i is datagen's document with seed i+1, exactly
// the corpus xqserve -dataset builds. The pers generator's recursive
// nesting makes pattern match counts vary by a third between generator
// seeds, so seeding the corpus per run would turn the spread between runs
// into a measure of the data rather than of the server. The run seed draws
// the traffic: the query mix, the predicate literals, the arrival times and
// the documents the mutation stream writes.
func corpusDocs(w workload) ([]document, error) {
	out := make([]document, w.docs)
	for i := range out {
		xml, err := genDoc(w.dataset, w.scale, int64(i+1))
		if err != nil {
			return nil, err
		}
		out[i] = document{id: fmt.Sprintf("%s-%03d", w.dataset, i), xml: xml}
	}
	return out, nil
}

// query is one distinct query of a workload's pool.
type query struct {
	src   string
	limit int // 0 = unlimited
	// shape names the oracle template (see oracle.go); args are the
	// template's predicate literals.
	shape string
	args  []string
}

// path is the request path and query string xqserve serves the query on.
func (q query) path() string {
	v := url.Values{"q": {q.src}}
	if q.limit > 0 {
		v.Set("limit", strconv.Itoa(q.limit))
	}
	return "/query?" + v.Encode()
}

// The paper's pattern queries (internal/experiments) used by the workloads.
const (
	qPers1a = "//manager//employee/name"
	qPers2c = "//manager[department/name]//employee/name"
	qPers4d = "//manager[.//manager//employee/name]/department/name"
	qDBLP1b = "//inproceedings[author]/cite/label"
	qDBLP2c = "//article[author][cite/label]/title"
)

// dblpPoolSize is the number of distinct value-predicate queries of
// dblp-selective: larger than the 256-entry plan cache, so the working set
// of fingerprints does not fit it.
const dblpPoolSize = 400

// queryPool returns the workload's distinct queries. A query stream draws
// from it with pickQuery.
func queryPool(w workload, seed int64) []query {
	switch w.name {
	case "pers-materialise":
		return []query{
			{src: qPers1a, shape: qPers1a},
			{src: qPers2c, shape: qPers2c},
			{src: qPers4d, shape: qPers4d},
		}
	case "pers-churn":
		return []query{
			{src: qPers1a, shape: qPers1a, limit: 10},
			{src: qPers2c, shape: qPers2c, limit: 10},
			{src: qPers4d, shape: qPers4d, limit: 10},
		}
	}
	// dblp-selective: the two structural queries under limit=10, then the
	// value-predicate pool. Authors follow a seeded Zipf over the 5000
	// author values datagen.DBLP draws from; booktitles are uniform over its
	// 300 conferences.
	pool := []query{
		{src: qDBLP1b, shape: qDBLP1b, limit: 10},
		{src: qDBLP2c, shape: qDBLP2c, limit: 10},
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "dblp-pool")))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	seen := map[string]bool{}
	// The four templates take turns and year bounds cycle through
	// 1970..2002, so every seed's pool has the same mix of shapes and
	// selectivities; the seed draws the authors and conferences.
	for k := 0; len(pool) < 2+dblpPoolSize; k++ {
		year := strconv.Itoa(1970 + (k/4)%33)
		for {
			author := fmt.Sprintf("author-%d", zipf.Uint64())
			var q query
			switch k % 4 {
			case 0:
				q = query{shape: shapeInprocAuthor, args: []string{author},
					src: fmt.Sprintf(`//inproceedings[author=%q]/title`, author)}
			case 1:
				q = query{shape: shapeArticleAuthor, args: []string{author},
					src: fmt.Sprintf(`//article[author=%q]/title`, author)}
			case 2:
				conf := fmt.Sprintf("conf-%d", rng.Intn(300))
				q = query{shape: shapeBooktitleYear, args: []string{conf, year},
					src: fmt.Sprintf(`//inproceedings[booktitle=%q][year>=%q]/title`, conf, year)}
			default:
				q = query{shape: shapeYearAuthor, args: []string{year, author},
					src: fmt.Sprintf(`//article[year>=%q][author=%q]/title`, year, author)}
			}
			if !seen[q.src] {
				seen[q.src] = true
				pool = append(pool, q)
				break
			}
		}
	}
	return pool
}

// picker draws a stream's queries from the pool in balanced blocks, so
// every block holds the workload's exact mix: on the pers workloads a block
// is a shuffled pass over the pool's three shapes; on dblp-selective a block
// of five holds one structural query under limit=10 (either of the two) and
// four value-predicate queries drawn uniformly from the pool.
type picker struct {
	w     workload
	pool  []query
	rng   *rand.Rand
	block []int
}

func newPicker(w workload, pool []query, rng *rand.Rand) *picker {
	return &picker{w: w, pool: pool, rng: rng}
}

func (p *picker) next() int {
	if len(p.block) == 0 {
		if p.w.dataset == "dblp" {
			p.block = []int{p.rng.Intn(2)}
			for i := 0; i < 4; i++ {
				p.block = append(p.block, 2+p.rng.Intn(len(p.pool)-2))
			}
			p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
		} else {
			p.block = p.rng.Perm(len(p.pool))
		}
	}
	op := p.block[0]
	p.block = p.block[1:]
	return op
}

// arrival is one scheduled request: when it is due (offset from the phase
// start) and which operation it sends (a query pool index or a mutation
// index).
type arrival struct {
	due time.Duration
	op  int
}

// arrivals is how many requests a phase of dur at rate offers: a fixed
// count, so every run of a phase measures the same number of requests.
func arrivals(rate float64, dur time.Duration) int {
	return int(rate*dur.Seconds() + 0.5)
}

// dueTimes returns n due offsets at rate per second: evenly spaced when
// paced, otherwise with each gap drawn uniformly from 0.5 to 1.5 times the
// mean interval. The jittered schedule is still open loop at a fixed rate,
// but its gaps vary a third as much as a Poisson process's (coefficient of
// variation 0.29 against 1): with Poisson arrivals the bursts of each
// seed's schedule, not the server, set most of the spread of p95 between
// runs.
func dueTimes(rng *rand.Rand, rate float64, n int, paced bool) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		if paced {
			t = float64(i) / rate
		}
		out[i] = time.Duration(t * float64(time.Second))
		if !paced {
			t += (0.5 + rng.Float64()) / rate
		}
	}
	return out
}

// querySchedule is the arrival schedule of one query phase: n requests at
// rate, jittered or paced, each drawing its query from a picker. label names
// the phase, so every phase has its own schedule.
func querySchedule(w workload, pool []query, seed int64, label string, rate float64, n int, paced bool) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule-"+label)))
	dues := dueTimes(rng, rate, n, paced)
	pick := newPicker(w, pool, rng)
	out := make([]arrival, n)
	for i, d := range dues {
		out[i] = arrival{due: d, op: pick.next()}
	}
	return out
}

// mutation is one write of the mutation stream.
type mutation struct {
	op  string // "insert", "replace" or "delete"
	id  string
	xml string // empty for delete
}

// churnPrefill is how many inserts open pers-churn's mutation stream
// before its blocks begin.
const churnPrefill = 16

// mutationPlan is the seeded mutation stream: n jittered arrivals at the
// workload's mutation rate. On pers-churn the stream first inserts
// churnPrefill documents, then repeats blocks of one insert, one replace of
// the oldest live document (which makes it the newest) and one delete of
// the oldest: a sliding window of churnPrefill live documents. The
// operations and document IDs are the same for every seed — only the
// documents' content and the arrival times vary — so every run compacts
// the same shards at the same points of the stream, and the log a restart
// replays has the same shape. The read-only workloads' write probe only
// inserts: it leaves the corpus's own documents alone and triggers no
// compaction.
func mutationPlan(w workload, seed int64, n int) ([]arrival, []mutation, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "mutations")))
	dues := dueTimes(rng, w.mutationRate, n, false)
	var live []string // oldest first
	arr := make([]arrival, len(dues))
	muts := make([]mutation, len(dues))
	for i, d := range dues {
		op := "insert"
		if w.churn && i >= churnPrefill {
			op = [...]string{"insert", "replace", "delete"}[(i-churnPrefill)%3]
		}
		m := mutation{op: op}
		switch op {
		case "insert":
			m.id = fmt.Sprintf("m-%05d", i)
			live = append(live, m.id)
		case "replace":
			m.id = live[0]
			live = append(live[1:], m.id)
		default:
			m.id = live[0]
			live = live[1:]
		}
		if m.op != "delete" {
			xml, err := genDoc(w.dataset, w.mutationScale, subSeed(seed, fmt.Sprintf("mutation-%d", i)))
			if err != nil {
				return nil, nil, err
			}
			m.xml = xml
		}
		arr[i] = arrival{due: d, op: i}
		muts[i] = m
	}
	return arr, muts, nil
}

// ledger is the document set implied by the acknowledged writes, in order.
type ledger map[string]string // id -> XML

func newLedger(docs []document) ledger {
	l := make(ledger, len(docs))
	for _, d := range docs {
		l[d.id] = d.xml
	}
	return l
}

func (l ledger) apply(m mutation) {
	if m.op == "delete" {
		delete(l, m.id)
	} else {
		l[m.id] = m.xml
	}
}

func (l ledger) ids() []string {
	out := make([]string, 0, len(l))
	for id := range l {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (l ledger) xmlBytes() int64 {
	var n int64
	for _, x := range l {
		n += int64(len(x))
	}
	return n
}
