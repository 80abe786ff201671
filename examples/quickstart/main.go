// Quickstart: compile a small C program with the table-driven code
// generator, print the VAX assembly, and execute it on the simulator.
package main

import (
	"fmt"
	"log"

	"ggcg"
)

const program = `
int a[10];

int sum(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += a[i];
	return s;
}

int main() {
	int i;
	for (i = 0; i < 10; i++) a[i] = i * i;
	return sum(10);
}
`

func main() {
	out, err := ggcg.Compile(program, ggcg.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== generated VAX assembly ===")
	fmt.Print(out.Asm)
	fmt.Printf("=== statistics ===\n%+v\n", out.Stats)

	s, err := ggcg.NewSim("vax", out.Asm)
	if err != nil {
		log.Fatal(err)
	}
	r, err := s.Call("_main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== execution ===\nmain() = %d (%d instructions)\n", r, s.Steps())
	if r != 285 {
		log.Fatalf("expected 285 (sum of squares 0..9), got %d", r)
	}
}
