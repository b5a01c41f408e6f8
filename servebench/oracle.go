package main

import (
	"fmt"
	"strconv"

	"sjos"
)

// The correctness oracle counts matches with the holistic twig join
// (Database.TwigStack), one standalone database per document, summed — an
// evaluation path independent of the optimizer, the structural-join
// executor, the corpus scatter-gather and the value index that the served
// queries go through.

// Value-predicate templates of dblp-selective. The oracle evaluates each
// template once per document without its predicates and then filters the
// matches by the predicated nodes' values, so the pool's 400 queries cost
// four twig joins per document instead of 400.
const (
	shapeInprocAuthor  = "inproc-author"
	shapeArticleAuthor = "article-author"
	shapeBooktitleYear = "booktitle-year"
	shapeYearAuthor    = "year-author"
)

// predTemplate is a template's unpredicated pattern and, per predicate
// literal, the pattern node it constrains and how.
type predTemplate struct {
	base  string
	nodes []int    // pattern node of each predicate literal
	tags  []string // that node's tag (checked against every match)
	ge    []bool   // numeric >= instead of string equality
}

var predTemplates = map[string]predTemplate{
	shapeInprocAuthor:  {base: "//inproceedings[author]/title", nodes: []int{1}, tags: []string{"author"}, ge: []bool{false}},
	shapeArticleAuthor: {base: "//article[author]/title", nodes: []int{1}, tags: []string{"author"}, ge: []bool{false}},
	shapeBooktitleYear: {base: "//inproceedings[booktitle][year]/title", nodes: []int{1, 2}, tags: []string{"booktitle", "year"}, ge: []bool{false, true}},
	shapeYearAuthor:    {base: "//article[year][author]/title", nodes: []int{1, 2}, tags: []string{"year", "author"}, ge: []bool{true, false}},
}

// docOracle holds one document's standalone database and memoised counts.
type docOracle struct {
	db     *sjos.Database
	counts map[string]int // pattern source -> match count
	// values holds, per template, the predicated nodes' values of every
	// match of the template's base pattern.
	values map[string][][]string
}

func newDocOracle(xml string) (*docOracle, error) {
	db, err := sjos.LoadXMLString(xml, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: loading document: %w", err)
	}
	return &docOracle{db: db, counts: map[string]int{}, values: map[string][][]string{}}, nil
}

func (o *docOracle) count(src string) (int, error) {
	if n, ok := o.counts[src]; ok {
		return n, nil
	}
	pat, err := sjos.ParsePattern(src)
	if err != nil {
		return 0, err
	}
	ms, err := o.db.TwigStack(pat)
	if err != nil {
		return 0, fmt.Errorf("oracle: %s: %w", src, err)
	}
	o.counts[src] = len(ms)
	return len(ms), nil
}

func (o *docOracle) templateValues(shape string) ([][]string, error) {
	if v, ok := o.values[shape]; ok {
		return v, nil
	}
	t := predTemplates[shape]
	ms, err := o.db.TwigStack(sjos.MustParsePattern(t.base))
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", t.base, err)
	}
	out := make([][]string, len(ms))
	for i, m := range ms {
		row := make([]string, len(t.nodes))
		for k, u := range t.nodes {
			if tag := o.db.TagName(m[u]); tag != t.tags[k] {
				return nil, fmt.Errorf("oracle: %s: node %d bound to <%s>, want <%s>", t.base, u, tag, t.tags[k])
			}
			row[k] = o.db.Value(m[u])
		}
		out[i] = row
	}
	o.values[shape] = out
	return out, nil
}

// countQuery is the query's match count on this document.
func (o *docOracle) countQuery(q query) (int, error) {
	t, ok := predTemplates[q.shape]
	if !ok {
		return o.count(q.src)
	}
	rows, err := o.templateValues(q.shape)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, row := range rows {
		hit := true
		for k, v := range row {
			if t.ge[k] {
				a, err1 := strconv.Atoi(v)
				b, err2 := strconv.Atoi(q.args[k])
				hit = err1 == nil && err2 == nil && a >= b
			} else {
				hit = v == q.args[k]
			}
			if !hit {
				break
			}
		}
		if hit {
			n++
		}
	}
	return n, nil
}

// oracle memoises per-document oracles by document content, so a churned
// document is loaded once however often the ledger is checked.
type oracle struct {
	docs map[string]*docOracle
}

func newOracle() *oracle { return &oracle{docs: map[string]*docOracle{}} }

func (o *oracle) doc(xml string) (*docOracle, error) {
	if d, ok := o.docs[xml]; ok {
		return d, nil
	}
	d, err := newDocOracle(xml)
	if err != nil {
		return nil, err
	}
	o.docs[xml] = d
	return d, nil
}

// counts returns, for each pool query, its match count summed over the
// documents of l.
func (o *oracle) counts(l ledger, pool []query) ([]int, error) {
	out := make([]int, len(pool))
	for _, id := range l.ids() {
		d, err := o.doc(l[id])
		if err != nil {
			return nil, err
		}
		for i, q := range pool {
			n, err := d.countQuery(q)
			if err != nil {
				return nil, err
			}
			out[i] += n
		}
	}
	return out, nil
}

// expectedCount is what a served query must report given its oracle count:
// the full count, or the limit when the match set is larger.
func expectedCount(q query, oracleCount int) int {
	if q.limit > 0 && oracleCount > q.limit {
		return q.limit
	}
	return oracleCount
}
