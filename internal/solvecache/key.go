package solvecache

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"contribmax/internal/ast"
	"contribmax/internal/db"
)

// Identity names the content of a solve's inputs. The cache trusts these
// strings completely: two calls presenting the same identity assert that
// the underlying database / program / random stream are byte-identical
// (including construction order — candidate ids and interned symbols
// depend on relation-creation and fact-insertion order, so "same content"
// means "same build sequence", which is what the content hashes below
// capture for text-loaded inputs).
type Identity struct {
	// Database identifies the database content. Empty means "derive it"
	// (db.Fingerprint — one pass over every tuple).
	Database string
	// Program identifies the program content. Empty means "derive it" from
	// the program's canonical rendering.
	Program string
	// Rand identifies the random stream the solve consumes, e.g. "seed:17".
	// An unidentified caller-supplied stream makes RR results uncacheable
	// (the cache cannot know two draws are the same draw); graph caching,
	// which consumes no randomness, still applies.
	Rand string
}

// Resolve fills the derivable blanks of an identity from the inputs.
// randKnown reports whether the random stream is identified: true when
// Rand was asserted, or when defaultRand says the caller runs on the
// solver's fixed default stream.
func (id Identity) Resolve(database *db.Database, prog *ast.Program, defaultRand bool) (out Identity, randKnown bool) {
	out = id
	if out.Database == "" && database != nil {
		out.Database = database.Fingerprint()
	}
	if out.Program == "" && prog != nil {
		out.Program = HashText(prog.String())
	}
	if out.Rand == "" {
		if !defaultRand {
			return out, false
		}
		out.Rand = "default"
	}
	return out, true
}

// GraphKey identifies one built WD graph: database and program content
// plus the build configuration (full preloaded build vs. a grouped magic
// union graph over specific roots).
type GraphKey struct {
	Database string
	Program  string
	// Config discriminates build shapes sharing a program: "full" for the
	// NaiveCM preloaded build, "magicg|sips=...|roots=..." for grouped
	// union graphs.
	Config string
}

func (k GraphKey) id() string {
	return record("g", k.Database, k.Program, k.Config)
}

// RRKey identifies one finalized RR collection. Everything the generated
// multiset depends on participates; the parallel worker count at a fixed
// parallelism class, proven byte-identical across its settings, is
// deliberately absent, and K is absent in fixed-θ mode (generation never
// reads it), which is what lets a k-sweep share one collection.
type RRKey struct {
	Algorithm  string
	Database   string
	Program    string
	Rand       string
	Targets    string // ordered T2 content hash (order drives root draws)
	Candidates string // ordered T1 content hash, or "edb" for the all-facts default
	Params     string // resolved θ or adaptive parameters, parallelism class, SIPS, prune
}

func (k RRKey) id() string {
	return record("r", k.Algorithm, k.Database, k.Program, k.Rand, k.Targets, k.Candidates, k.Params)
}

// record renders fields length-prefixed so no concatenation of different
// field values can collide.
func record(kind string, fields ...string) string {
	out := kind
	for _, f := range fields {
		out += fmt.Sprintf("|%d:%s", len(f), f)
	}
	return out
}

// HashText returns a short content fingerprint of a string (FNV-1a 64).
func HashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return hex.EncodeToString(h.Sum(nil))
}

// HashAtoms fingerprints an atom list order-sensitively (candidate ids and
// target draws are positional, so a permutation is a different key).
func HashAtoms(atoms []ast.Atom) string {
	h := fnv.New64a()
	for _, a := range atoms {
		s := a.String()
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}
