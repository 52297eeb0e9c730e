package wdgraph

import (
	"fmt"
	"io"

	"contribmax/internal/db"
)

// WriteDOT renders the graph in Graphviz DOT format: fact nodes as ovals
// (edb facts shaded), rule-instantiation nodes as small boxes, and edges
// labeled with their weight when it differs from 1.
func WriteDOT(w io.Writer, g *Graph, symbols *db.SymbolTable) error {
	if _, err := fmt.Fprintln(w, "digraph wd {"); err != nil {
		return err
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(NodeID(i))
		var attrs string
		switch {
		case n.Kind == RuleNode:
			attrs = fmt.Sprintf("label=%q shape=box style=filled fillcolor=thistle", n.Pred)
		case n.EDB:
			attrs = fmt.Sprintf("label=%q style=filled fillcolor=khaki", factLabel(n, symbols))
		default:
			attrs = fmt.Sprintf("label=%q style=filled fillcolor=salmon", factLabel(n, symbols))
		}
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", i, attrs); err != nil {
			return err
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		for _, to := range g.OutEdges(NodeID(i)) {
			if wt := g.w[i]; wt != 1 {
				if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=\"%g\"];\n", i, to, wt); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", i, to); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func factLabel(n Node, symbols *db.SymbolTable) string {
	s := n.Pred + "("
	for i, sym := range n.Tuple {
		if i > 0 {
			s += ","
		}
		s += symbols.Name(sym)
	}
	return s + ")"
}
