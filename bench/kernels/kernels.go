// Package kernels generates seeded, loop-heavy C kernels for the
// run-kernels workload: small programs whose run time is concentrated in
// a few hot loops, so the simulators — not the compiler — do the work.
//
// Each kernel is a self-contained unit whose main() takes no arguments and
// returns a checksum. Sizes are chosen so every kernel runs roughly 0.1 to
// 0.4 M simulated instructions on either target: short enough for a
// timed run to hold a thousand kernel runs, and far below the simulators'
// 50 M step limit. Floating-point kernels use only values
// with few significant bits, so every sum is exact and the result is the
// same on every machine model.
package kernels

import "fmt"

// Kernel is one generated program.
type Kernel struct {
	Name string // kind plus its parameters, e.g. "sieve/n=5123"
	Src  string
}

// Kinds lists the kernel kinds in the order Generate cycles through them.
var Kinds = []string{"sieve", "bubble", "gcd", "popcount", "fibmod", "dot"}

// rng is a small linear-congruential generator, so a kernel set is
// reproducible from its seed alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

// in returns a value drawn uniformly from [lo, hi].
func (r *rng) in(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// Generate returns n kernels drawn from seed, cycling through Kinds so any
// n that is a multiple of len(Kinds) holds every kind equally often.
func Generate(seed int64, n int) []Kernel {
	r := &rng{s: uint64(seed)*2654435761 + 0x9e3779b97f4a7c15}
	r.next()
	out := make([]Kernel, 0, n)
	for i := 0; i < n; i++ {
		var k Kernel
		switch Kinds[i%len(Kinds)] {
		case "sieve":
			k = sieve(r.in(3000, 5000))
		case "bubble":
			k = bubble(r.in(120, 160), r.in(1, 1<<30))
		case "gcd":
			k = gcd(r.in(36, 44), r.in(3, 97), r.in(1, 50), r.in(3, 97), r.in(1, 50))
		case "popcount":
			k = popcount(r.in(800, 1200), r.in(1, 1<<30))
		case "fibmod":
			k = fibmod(r.in(40, 50), r.in(200, 300), []int{9973, 10007, 65521, 32749}[r.in(0, 3)])
		case "dot":
			k = dot(r.in(2, 16), r.in(2, 12), r.in(200, 280))
		}
		out = append(out, k)
	}
	return out
}

// sieve counts the primes below n with the sieve of Eratosthenes over a
// char array: byte stores and loads in nested loops.
func sieve(n int) Kernel {
	return Kernel{Name: fmt.Sprintf("sieve/n=%d", n), Src: fmt.Sprintf(`
char flag[8192];
int main() {
	int i, j, c;
	c = 0;
	for (i = 2; i < %[1]d; i++) flag[i] = 1;
	for (i = 2; i * i < %[1]d; i++)
		if (flag[i])
			for (j = i * i; j < %[1]d; j += i) flag[j] = 0;
	for (i = 2; i < %[1]d; i++)
		if (flag[i]) c++;
	return c;
}
`, n)}
}

// bubble sorts n LCG-filled ints: compare-and-swap over indexed int
// arrays, the quadratic inner loop dominating.
func bubble(n, seed int) Kernel {
	return Kernel{Name: fmt.Sprintf("bubble/n=%d", n), Src: fmt.Sprintf(`
int a[160];
int main() {
	int i, j, t, s;
	unsigned int x;
	x = %[2]d;
	for (i = 0; i < %[1]d; i++) {
		x = x * 1103515245 + 12345;
		a[i] = (x >> 16) & 32767;
	}
	for (i = 0; i < %[1]d - 1; i++)
		for (j = 0; j < %[1]d - 1 - i; j++)
			if (a[j] > a[j + 1]) {
				t = a[j];
				a[j] = a[j + 1];
				a[j + 1] = t;
			}
	s = 0;
	for (i = 0; i < %[1]d; i++) s = (s * 31 + a[i]) %% 1000003;
	return s;
}
`, n, seed)}
}

// gcd sums Euclid's gcd over an m×m grid of affine operands: a call per
// cell and a modulus per iteration.
func gcd(m, a, b, c, d int) Kernel {
	return Kernel{Name: fmt.Sprintf("gcd/m=%d", m), Src: fmt.Sprintf(`
int gcd(int x, int y) {
	int t;
	while (y) {
		t = x %% y;
		x = y;
		y = t;
	}
	return x;
}
int main() {
	int i, j, s;
	s = 0;
	for (i = 1; i <= %d; i++)
		for (j = 1; j <= %[1]d; j++)
			s += gcd(i * %d + %d, j * %d + %d);
	return s;
}
`, m, a, b, c, d)}
}

// popcount counts the set bits of n LCG values with the clear-lowest-bit
// loop: unsigned arithmetic and bitwise operators.
func popcount(n, seed int) Kernel {
	return Kernel{Name: fmt.Sprintf("popcount/n=%d", n), Src: fmt.Sprintf(`
int main() {
	unsigned int x, v;
	int i, c;
	x = %[2]d;
	c = 0;
	for (i = 0; i < %[1]d; i++) {
		x = x * 1664525 + 1013904223;
		v = x;
		while (v) {
			v &= v - 1;
			c++;
		}
	}
	return c;
}
`, n, seed)}
}

// fibmod sums k iterative Fibonacci numbers mod p: a tight loop of adds,
// moduli and register moves.
func fibmod(k, n, p int) Kernel {
	return Kernel{Name: fmt.Sprintf("fibmod/k=%d,n=%d", k, n), Src: fmt.Sprintf(`
int main() {
	int i, j, a, b, t, s;
	s = 0;
	for (j = 0; j < %d; j++) {
		a = 0;
		b = 1;
		for (i = 0; i < %d + j; i++) {
			t = (a + b) %% %d;
			a = b;
			b = t;
		}
		s = (s + a) %% %[3]d;
	}
	return s;
}
`, k, n, p)}
}

// dot takes r dot products of two 64-element double vectors. On the VAX
// every double lives in a register pair. The vector elements are small
// multiples of 1/2 and 1/4, so every product and sum is exact.
func dot(a, b, r int) Kernel {
	return Kernel{Name: fmt.Sprintf("dot/r=%d", r), Src: fmt.Sprintf(`
double x[64], y[64];
int main() {
	int i, k;
	double s;
	for (i = 0; i < 64; i++) {
		x[i] = (i * %d %% 17) * 0.5;
		y[i] = (i * %d %% 13) * 0.25;
	}
	s = 0.0;
	for (k = 0; k < %d; k++)
		for (i = 0; i < 64; i++)
			s = s + x[i] * y[i];
	return (int)s;
}
`, a, b, r)}
}
