// Vaxrun assembles a generated assembly file and executes a function on
// the matching bundled simulator, printing the result and execution
// statistics. Despite the historical name it drives any registered
// target's simulator through the target registry: -target selects the
// machine the file was generated for (default vax).
//
// Usage:
//
//	vaxrun [flags] file.s [arg...]
//
//	-target name  target whose simulator to execute on (vax or risc)
//	-f name    function to call (default main)
//	-counts    print per-mnemonic dynamic instruction counts
//	-profile   print the full execution profile: per-opcode and
//	           per-addressing-mode frequencies and per-function step counts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ggcg/internal/obs"
	_ "ggcg/internal/risc" // register the RISC-subset backend
	"ggcg/internal/target"
	_ "ggcg/internal/vax" // register the VAX backend
)

// errUsage reports a malformed command line.
var errUsage = errors.New("usage: vaxrun [flags] file.s [arg...]")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "vaxrun:", err)
		os.Exit(1)
	}
}

// run is the whole tool over its arguments, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vaxrun", flag.ContinueOnError)
	var (
		tgt     = fs.String("target", "vax", "target whose simulator to execute on ("+strings.Join(target.Names(), ", ")+")")
		fn      = fs.String("f", "main", "function to call")
		counts  = fs.Bool("counts", false, "print per-mnemonic instruction counts")
		profile = fs.Bool("profile", false, "print the full execution profile")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() < 1 {
		return errUsage
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var callArgs []int64
	for _, a := range fs.Args()[1:] {
		v, err := strconv.ParseInt(a, 0, 64)
		if err != nil {
			return fmt.Errorf("bad argument %q: %v", a, err)
		}
		callArgs = append(callArgs, v)
	}

	mach, err := target.Lookup(*tgt)
	if err != nil {
		return err
	}
	sim, err := mach.NewSim(string(src))
	if err != nil {
		return err
	}
	if *profile {
		sim.EnableFuncProfile()
	}
	r, err := sim.Call("_"+*fn, callArgs...)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s(%v) = %d\n", *fn, callArgs, r)
	fmt.Fprintf(stdout, "%d instructions executed\n", sim.Steps())
	if *profile {
		obs.WriteSimProfile(stdout, sim.Profile())
	} else if *counts {
		type mc struct {
			mn string
			n  int64
		}
		var list []mc
		for mn, n := range sim.Profile().Opcodes {
			list = append(list, mc{mn, n})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].n != list[j].n {
				return list[i].n > list[j].n
			}
			return list[i].mn < list[j].mn
		})
		for _, c := range list {
			fmt.Fprintf(stdout, "%10d  %s\n", c.n, c.mn)
		}
	}
	return nil
}
