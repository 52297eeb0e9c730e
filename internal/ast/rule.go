package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Rule is a probabilistic datalog rule
//
//	p label: head :- body1, ..., bodyn.
//
// Prob is the probability that any given instantiation of the rule fires in
// a random execution of the program (the w(r) of the paper). A rule with an
// empty body is a (probabilistic) fact rule.
type Rule struct {
	// Label identifies the rule for provenance and Magic-Sets origin
	// tracking. Labels are unique within a validated program; the parser
	// assigns rN defaults when the source omits them.
	Label string
	// Prob is the firing probability w(r), in [0, 1].
	Prob float64
	// Head is the rule head; its predicate is idb by definition.
	Head Atom
	// Body is the (possibly empty) list of body atoms.
	Body []Atom
	// Pos is the source position of the rule's first token (the
	// probability, label, or head). Zero for rules built programmatically;
	// excluded from Equal.
	Pos Pos
}

// Span returns the rule's source range, from its first token to the last
// position of its last body atom (or head, for facts).
func (r Rule) Span() Span {
	s := Span{Start: r.Pos, End: r.Pos}
	widen := func(sp Span) {
		if sp.End.IsValid() && s.End.Before(sp.End) {
			s.End = sp.End
		}
	}
	widen(r.Head.Span())
	for _, b := range r.Body {
		widen(b.Span())
	}
	return s
}

// NewRule builds a rule with the given label, probability, head, and body.
func NewRule(label string, prob float64, head Atom, body ...Atom) Rule {
	return Rule{Label: label, Prob: prob, Head: head, Body: body}
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// Vars returns the names of all variables occurring in the rule, in order of
// first occurrence (head first, then body left to right).
func (r Rule) Vars() []string {
	vs := r.Head.Vars(nil)
	for _, b := range r.Body {
		vs = b.Vars(vs)
	}
	return vs
}

// BodyVars returns the names of the variables occurring in the body.
func (r Rule) BodyVars() []string {
	var vs []string
	for _, b := range r.Body {
		vs = b.Vars(vs)
	}
	return vs
}

// BindingVars returns the variables that body evaluation can bind: those
// occurring in positive, non-built-in body atoms. Variables of negated and
// built-in atoms must be drawn from this set (safety).
func (r Rule) BindingVars() []string {
	var vs []string
	for _, b := range r.Body {
		if b.Negated || IsBuiltin(b.Predicate) {
			continue
		}
		vs = b.Vars(vs)
	}
	return vs
}

// HeadVars returns the names of the variables occurring in the head.
func (r Rule) HeadVars() []string { return r.Head.Vars(nil) }

// RangeRestricted reports whether every head variable occurs in a positive
// non-built-in body atom. Facts (empty body) are range-restricted iff the
// head is ground.
func (r Rule) RangeRestricted() bool {
	binding := r.BindingVars()
	for _, v := range r.HeadVars() {
		if !containsString(binding, v) {
			return false
		}
	}
	return true
}

// Safe reports whether every variable of each negated or built-in body
// atom occurs in some positive non-built-in body atom.
func (r Rule) Safe() bool {
	binding := r.BindingVars()
	for _, b := range r.Body {
		if !b.Negated && !IsBuiltin(b.Predicate) {
			continue
		}
		for _, v := range b.Vars(nil) {
			if !containsString(binding, v) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	body := make([]Atom, len(r.Body))
	for i, b := range r.Body {
		body[i] = b.Clone()
	}
	return Rule{Label: r.Label, Prob: r.Prob, Head: r.Head.Clone(), Body: body, Pos: r.Pos}
}

// Equal reports structural equality (label, probability, head, body),
// ignoring source positions.
func (r Rule) Equal(o Rule) bool {
	if r.Label != o.Label || r.Prob != o.Prob || !r.Head.Equal(o.Head) || len(r.Body) != len(o.Body) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	return true
}

// String renders the rule in source syntax, e.g.
//
//	0.8 r1: dealsWith(A, B) :- dealsWith(B, A).
func (r Rule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%g", r.Prob)
	if r.Label != "" {
		sb.WriteByte(' ')
		sb.WriteString(r.Label)
		sb.WriteByte(':')
	}
	sb.WriteByte(' ')
	sb.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		for i, b := range r.Body {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(b.String())
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

// CanonicalSig renders head :- body with variables renamed v0, v1, ... in
// order of first occurrence (head first) and negated atoms marked, so
// structurally identical rules share a signature whatever their variable
// names. The Magic-Sets transformation dedups its generated magic rules by
// it, and the optimizer its deterministic rules.
func CanonicalSig(head Atom, body []Atom) string {
	var sb strings.Builder
	names := map[string]string{}
	canon := func(a Atom) {
		if a.Negated {
			sb.WriteByte('!')
		}
		sb.WriteString(a.Predicate)
		sb.WriteByte('(')
		for i, t := range a.Terms {
			if i > 0 {
				sb.WriteByte(',')
			}
			if t.IsVar() {
				n, ok := names[t.Name]
				if !ok {
					n = "v" + strconv.Itoa(len(names))
					names[t.Name] = n
				}
				sb.WriteString(n)
			} else {
				sb.WriteByte(0)
				sb.WriteString(t.Name)
			}
		}
		sb.WriteByte(')')
	}
	canon(head)
	sb.WriteString(":-")
	for _, b := range body {
		canon(b)
		sb.WriteByte(',')
	}
	return sb.String()
}
