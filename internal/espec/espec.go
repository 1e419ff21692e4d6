// Package espec parses textual experiment specifications of the form
// used by the command line tools:
//
//	add_r64_r64:2 imul_r64_r64 mov_m64_r64:1
//
// Each token is an instruction form name with an optional ":count"
// suffix (default 1). Names resolve against a provided name table —
// either an ISA's form names or an inferred mapping's instruction names.
package espec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pmevo/internal/portmap"
)

// Resolver maps instruction names to dense indices.
type Resolver struct {
	byName map[string]int
	names  []string
}

// NewResolver builds a resolver from a dense name table.
func NewResolver(names []string) *Resolver {
	r := &Resolver{byName: make(map[string]int, len(names)), names: names}
	for i, n := range names {
		if n == "" {
			continue
		}
		if _, dup := r.byName[n]; !dup {
			r.byName[n] = i
		}
	}
	return r
}

// Names returns the resolvable names in index order.
func (r *Resolver) Names() []string { return r.names }

// Lookup resolves one name.
func (r *Resolver) Lookup(name string) (int, bool) {
	i, ok := r.byName[name]
	return i, ok
}

// suggest returns up to three known names containing the given
// substring, for error messages.
func (r *Resolver) suggest(fragment string) []string {
	var out []string
	for name := range r.byName {
		if strings.Contains(name, fragment) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

// Parse parses a list of "name[:count]" tokens into an experiment.
// Repeated names merge; a count, or a merged total, that does not fit in
// an int is an error.
func (r *Resolver) Parse(tokens []string) (portmap.Experiment, error) {
	if len(tokens) == 0 {
		return nil, fmt.Errorf("espec: empty experiment specification")
	}
	var e portmap.Experiment
	totals := make(map[int]int, len(tokens))
	for _, tok := range tokens {
		name, countStr, hasCount := strings.Cut(tok, ":")
		if name == "" {
			return nil, fmt.Errorf("espec: empty instruction name in %q", tok)
		}
		count := 1
		if hasCount {
			c, err := strconv.Atoi(countStr)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("espec: bad count in %q (want a positive integer)", tok)
			}
			count = c
		}
		idx, ok := r.Lookup(name)
		if !ok {
			msg := fmt.Sprintf("espec: unknown instruction form %q", name)
			if hints := r.suggest(firstWord(name)); len(hints) > 0 {
				msg += fmt.Sprintf(" (did you mean %s?)", strings.Join(hints, ", "))
			}
			return nil, fmt.Errorf("%s", msg)
		}
		if totals[idx] > math.MaxInt-count {
			return nil, fmt.Errorf("espec: total count of %q overflows", name)
		}
		totals[idx] += count
		e = append(e, portmap.InstCount{Inst: idx, Count: count})
	}
	return e.Normalize(), nil
}

// firstWord extracts the mnemonic part of a form name for suggestions.
func firstWord(name string) string {
	if i := strings.IndexByte(name, '_'); i > 0 {
		return name[:i]
	}
	return name
}

// Format renders an experiment back into the token syntax.
func (r *Resolver) Format(e portmap.Experiment) string {
	n := e.Normalize()
	parts := make([]string, 0, len(n))
	for _, t := range n {
		name := fmt.Sprintf("I%d", t.Inst)
		if t.Inst >= 0 && t.Inst < len(r.names) && r.names[t.Inst] != "" {
			name = r.names[t.Inst]
		}
		if t.Count == 1 {
			parts = append(parts, name)
		} else {
			parts = append(parts, fmt.Sprintf("%s:%d", name, t.Count))
		}
	}
	return strings.Join(parts, " ")
}
