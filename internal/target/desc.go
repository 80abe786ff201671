package target

import (
	"fmt"
	"sync"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	"ggcg/internal/tablegen"
)

// Desc is a backend's machine description: the generic description text
// it writes, the instruction-selection tables constructed from it offline
// (`ggtables -gen` writes them into the backend's package as program
// source, §3.2's static table constructor), and what the static half of
// the system (§3) derives from those at run time — the type-replicated
// grammar, the generic statistics, and the tables wrapped over the
// grammar — each made once per process on first use. The objects are
// immutable and shared read-only by every concurrent compilation. A
// backend's Machine embeds a *Desc, which supplies its Name, Grammar,
// GenericStats, Tables and TableID methods.
type Desc struct {
	name    string
	shipped *tablegen.Shipped
	grammar func() (*cgram.Grammar, error)
	stats   func() (cgram.Stats, error)
	tables  func() (*tablegen.Tables, error)
}

// NewDesc returns the description of the machine called name (the
// registry key, which also prefixes its errors) from its generic
// description text and the tables shipped with it (nil before the first
// `ggtables -gen`, when only Grammar and GenericStats work).
func NewDesc(name, generic string, shipped *tablegen.Shipped) *Desc {
	d := &Desc{name: name, shipped: shipped}
	d.grammar = sync.OnceValues(func() (*cgram.Grammar, error) {
		expanded, err := mdgen.Expand(generic)
		if err != nil {
			return nil, err
		}
		g, err := cgram.Parse(expanded)
		if err != nil {
			return nil, err
		}
		if err := g.Validate(ir.TermArity); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		return g, nil
	})
	d.stats = sync.OnceValues(func() (cgram.Stats, error) {
		g, err := cgram.Parse(mdgen.Generic(generic))
		if err != nil {
			return cgram.Stats{}, err
		}
		return g.Stats(), nil
	})
	d.tables = sync.OnceValues(func() (*tablegen.Tables, error) {
		g, err := d.grammar()
		if err != nil {
			return nil, err
		}
		if shipped == nil {
			return nil, fmt.Errorf("%s: no shipped tables; generate them with ggtables -target %s -gen", name, name)
		}
		t, err := tablegen.Load(g, shipped)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		return t, nil
	})
	return d
}

// Name is the machine's registry key.
func (d *Desc) Name() string { return d.name }

// Grammar returns the type-replicated description, expanded, parsed and
// validated once per process.
func (d *Desc) Grammar() (*cgram.Grammar, error) { return d.grammar() }

// GenericStats sizes the generic (pre-replication) description — the
// "458 productions" row of the paper's §8 statistics table.
func (d *Desc) GenericStats() (cgram.Stats, error) { return d.stats() }

// Tables returns the instruction-selection tables: the shipped arrays
// wrapped over the grammar, once per process. Nothing is constructed.
func (d *Desc) Tables() (*tablegen.Tables, error) { return d.tables() }

// TableID returns the shipped tables' content hash (tablegen.ID): the
// SHA-256 of the built tables' wire encoding plus the encoding version.
// Any change to the description or the table constructor changes the ID,
// which is what makes it safe as the table-identity half of a
// compile-cache fingerprint. It fails as Tables does.
func (d *Desc) TableID() (string, error) {
	if _, err := d.tables(); err != nil {
		return "", err
	}
	return d.shipped.ID, nil
}
