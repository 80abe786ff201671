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
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ggcg/internal/obs"
	_ "ggcg/internal/risc" // register the RISC-subset backend
	"ggcg/internal/target"
	_ "ggcg/internal/vax" // register the VAX backend
)

func main() {
	var (
		tgt     = flag.String("target", "vax", "target whose simulator to execute on ("+strings.Join(target.Names(), ", ")+")")
		fn      = flag.String("f", "main", "function to call")
		counts  = flag.Bool("counts", false, "print per-mnemonic instruction counts")
		profile = flag.Bool("profile", false, "print the full execution profile")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: vaxrun [flags] file.s [arg...]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var args []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 0, 64)
		if err != nil {
			fatal(fmt.Errorf("bad argument %q: %v", a, err))
		}
		args = append(args, v)
	}

	mach, err := target.Lookup(*tgt)
	if err != nil {
		fatal(err)
	}
	sim, err := mach.NewSim(string(src))
	if err != nil {
		fatal(err)
	}
	if *profile {
		sim.EnableFuncProfile()
	}
	r, err := sim.Call("_"+*fn, args...)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s(%v) = %d\n", *fn, args, r)
	fmt.Printf("%d instructions executed\n", sim.Steps())
	if *profile {
		obs.WriteSimProfile(os.Stdout, sim.Profile())
	} else if *counts {
		type mc struct {
			mn string
			n  int64
		}
		var list []mc
		for mn, n := range sim.Profile().Opcodes {
			list = append(list, mc{mn, n})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n })
		for _, c := range list {
			fmt.Printf("%10d  %s\n", c.n, c.mn)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vaxrun:", err)
	os.Exit(1)
}
