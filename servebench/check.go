package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// checkQueryResponse verifies one /query response body: the reported count
// must equal want, and the response must hold exactly count rendered rows
// and count document IDs. It scans the JSON instead of decoding it, so
// checking a multi-megabyte response costs the generator little CPU.
func checkQueryResponse(body []byte, want int) error {
	count, rest, err := intField(body, `{"count":`)
	if err != nil {
		return err
	}
	if count != want {
		return fmt.Errorf("count %d, oracle says %d", count, want)
	}
	rows, rest, err := arrayLen(rest, `,"matches":`)
	if err != nil {
		return err
	}
	docs, _, err := arrayLen(rest, `,"docs":`)
	if err != nil {
		return err
	}
	if rows != count || docs != count {
		return fmt.Errorf("count %d but %d rendered rows and %d document IDs", count, rows, docs)
	}
	return nil
}

// intField parses the integer after prefix at the start of b.
func intField(b []byte, prefix string) (int, []byte, error) {
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return 0, nil, fmt.Errorf("response does not start with %s", prefix)
	}
	b = b[len(prefix):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	n, err := strconv.Atoi(string(b[:i]))
	return n, b[i:], err
}

// arrayLen counts the elements of the JSON array after key at the start of
// b; an absent key (omitted empty array) counts 0 and consumes nothing.
func arrayLen(b []byte, key string) (int, []byte, error) {
	if !bytes.HasPrefix(b, []byte(key+"[")) {
		return 0, b, nil
	}
	b = b[len(key):]
	depth, n := 0, 0
	inStr, esc := false, false
	for i, c := range b {
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		if depth == 1 && n == 0 && c != ']' && c != ' ' {
			n = 1
		}
		switch c {
		case '"':
			inStr = true
		case '[', '{':
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				return n, b[i+1:], nil
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return 0, nil, fmt.Errorf("unterminated array %s", key)
}

// docSetQuery matches each document's root element once, so its rendered
// document IDs are the live document set.
func docSetQuery(dataset string) string {
	if dataset == "dblp" {
		return "/query?q=%2F%2Fdblp"
	}
	return "/query?q=%2F%2Fpersonnel"
}

// parseDocSet decodes the sorted document IDs of a docSetQuery response.
func parseDocSet(body []byte) ([]string, error) {
	var r struct {
		Docs []string `json:"docs"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	sort.Strings(r.Docs)
	return r.Docs, nil
}

// stateChecks bounds how many pool queries checkState re-counts.
const stateChecks = 24

// checkState verifies that the server holds exactly the ledger's documents
// and that the first stateChecks pool queries, unlimited and count-only,
// report the oracle's count over them.
func checkState(c *conn, s *server, w workload, l ledger, pool []query, or *oracle) error {
	if err := c.do("GET", s.url(docSetQuery(w.dataset)), ""); err != nil {
		return err
	}
	got, err := parseDocSet(c.buf.Bytes())
	if err != nil {
		return fmt.Errorf("decoding document set: %w", err)
	}
	want := l.ids()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("server holds %d documents, ledger has %d (first differences: %s)", len(got), len(want), firstDiff(got, want))
	}
	pool = pool[:min(len(pool), stateChecks)]
	counts, err := or.counts(l, pool)
	if err != nil {
		return err
	}
	for i, q := range pool {
		full := q
		full.limit = 0
		if err := c.do("GET", s.url(full.path()+"&count=1"), ""); err != nil {
			return err
		}
		n, _, err := intField(c.buf.Bytes(), `{"count":`)
		if err != nil {
			return err
		}
		if n != counts[i] {
			return fmt.Errorf("%s: count %d, oracle over the ledger says %d", q.src, n, counts[i])
		}
	}
	return nil
}

func firstDiff(got, want []string) string {
	g := map[string]bool{}
	for _, id := range got {
		g[id] = true
	}
	w := map[string]bool{}
	for _, id := range want {
		w[id] = true
	}
	var out []string
	for _, id := range got {
		if !w[id] && len(out) < 3 {
			out = append(out, "+"+id)
		}
	}
	for _, id := range want {
		if !g[id] && len(out) < 6 {
			out = append(out, "-"+id)
		}
	}
	return fmt.Sprint(out)
}
