// Ggtables runs the code generator generator: it type-replicates a machine
// description grammar, constructs the SLR(1)-style instruction-selection
// tables, and reports the statistics and diagnostics of §3.2 and §8 of the
// paper (grammar sizes, state counts, disambiguated conflicts, semantic
// blocks, and — with -blocks — a bounded search for syntactic blocks).
//
// Usage:
//
//	ggtables [flags] [description.g]
//
// With no file the built-in description of the -target machine (default
// vax) is used.
//
//	-target name  report on the named registered machine's description
//	-naive        use the naive first-cut construction algorithm (§7)
//	-conflicts    list every disambiguated conflict
//	-blocks n     search for syntactic blocks on inputs up to n terminals
//	-encode file  write the constructed tables to file
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	_ "ggcg/internal/risc" // register the RISC-subset backend
	"ggcg/internal/tablegen"
	"ggcg/internal/target"
	_ "ggcg/internal/vax" // register the VAX backend
)

// errUsage reports a malformed command line.
var errUsage = errors.New("usage: ggtables [flags] [description.g]")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "ggtables:", err)
		os.Exit(1)
	}
}

// run is the whole tool over its arguments, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ggtables", flag.ContinueOnError)
	var (
		targetFlg = fs.String("target", "vax", "machine whose description to report on ("+strings.Join(target.Names(), ", ")+")")
		naive     = fs.Bool("naive", false, "use the naive construction algorithm")
		conflicts = fs.Bool("conflicts", false, "list disambiguated conflicts")
		blocks    = fs.Int("blocks", 0, "search for syntactic blocks up to n terminals")
		encode    = fs.String("encode", "", "write constructed tables to `file`")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	mach, err := target.Lookup(*targetFlg)
	if err != nil {
		return err
	}

	var (
		name string
		gs   cgram.Stats
		g    *cgram.Grammar
		t    *tablegen.Tables
	)
	switch fs.NArg() {
	case 0:
		name = "built-in " + strings.ToUpper(mach.Name()) + " description"
		if gs, err = mach.GenericStats(); err != nil {
			return err
		}
		if g, err = mach.Grammar(); err != nil {
			return err
		}
		if !*naive {
			// The shared once-built tables: the same object a compilation
			// drives.
			if t, err = mach.Tables(); err != nil {
				return err
			}
		}
	case 1:
		name = fs.Arg(0)
		if gs, g, err = load(name); err != nil {
			return err
		}
	default:
		return errUsage
	}
	if t == nil {
		if t, err = tablegen.Build(g, tablegen.Options{Naive: *naive}); err != nil {
			return err
		}
	}

	fst := g.Stats()
	fmt.Fprintf(stdout, "%s\n", name)
	fmt.Fprintf(stdout, "generic:    %4d productions  %4d terminals  %4d nonterminals\n",
		gs.Productions, gs.Terminals, gs.Nonterminals)
	fmt.Fprintf(stdout, "replicated: %4d productions  %4d terminals  %4d nonterminals  %4d chain rules\n",
		fst.Productions, fst.Terminals, fst.Nonterminals, fst.ChainRules)
	sz := t.Size()
	fmt.Fprintf(stdout, "tables:     %4d states  %5d action entries  %5d goto entries\n",
		t.Stats.States, sz.ActionEntries, sz.GotoEntries)
	fmt.Fprintf(stdout, "encoding:   %7d bytes dense  %7d bytes packed  (%.1fx compression)\n",
		sz.Bytes, sz.PackedBytes, float64(sz.Bytes)/float64(sz.PackedBytes))
	fmt.Fprintf(stdout, "conflicts:  %d disambiguated  (%d dynamic choices, %d semantic blocks)\n",
		len(t.Conflicts), len(t.Choices), len(t.SemBlocks))
	for _, sb := range t.SemBlocks {
		fmt.Fprintf(stdout, "  semantic block: state %d on %s, productions %v\n", sb.State, sb.Term, sb.Prods)
	}
	if *conflicts {
		for _, c := range t.Conflicts {
			fmt.Fprintln(stdout, " ", c)
		}
	}
	if *blocks > 0 {
		bs, complete := tablegen.CheckBlocks(t, ir.TermArity, *blocks, 500000)
		fmt.Fprintf(stdout, "syntactic block search (inputs up to %d terminals, exhaustive=%v): %d potential blocks\n",
			*blocks, complete, len(bs))
		for i, blk := range bs {
			if i >= 20 {
				fmt.Fprintf(stdout, "  ... and %d more\n", len(bs)-20)
				break
			}
			fmt.Fprintln(stdout, " ", blk)
		}
	}
	if *encode != "" {
		return write(stdout, t, *encode)
	}
	return nil
}

// load reads a generic description file, sizes it, and expands and
// parses it. A description that fails validation is reported with a
// warning but still built, so a work-in-progress grammar can be examined.
func load(path string) (cgram.Stats, *cgram.Grammar, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cgram.Stats{}, nil, err
	}
	src := string(data)
	generic, err := cgram.Parse(mdgen.Generic(src))
	if err != nil {
		return cgram.Stats{}, nil, err
	}
	expanded, err := mdgen.Expand(src)
	if err != nil {
		return cgram.Stats{}, nil, err
	}
	g, err := cgram.Parse(expanded)
	if err != nil {
		return cgram.Stats{}, nil, err
	}
	if err := g.Validate(ir.TermArity); err != nil {
		fmt.Fprintln(os.Stderr, "warning:", err)
	}
	return generic.Stats(), g, nil
}

// write encodes t to path and round-trips what was written: the wire
// format ships only the packed comb vectors, so this proves the file
// decodes back to the exact tables (version check, packed consistency
// validation, dense reconstruction) before anything downstream trusts it.
func write(stdout io.Writer, t *tablegen.Tables, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	t2, err := tablegen.Decode(rf)
	rf.Close()
	if err != nil {
		return fmt.Errorf("round-trip of %s failed: %v", path, err)
	}
	if t2.Stats.States != t.Stats.States || len(t2.Terms) != len(t.Terms) {
		return fmt.Errorf("round-trip of %s changed the tables", path)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tables written to %s (%d bytes on disk, version %d, round-trip verified)\n",
		path, fi.Size(), tablegen.EncodingVersion)
	return nil
}
