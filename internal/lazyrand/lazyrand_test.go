package lazyrand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// identitySeeds are the seeds the stream-identity tests compare at: the
// edges of math/rand's seed reduction (0, negatives, the modulus 2³¹−1 and
// its neighbours, values far above it) and the trial seed stride.
var identitySeeds = []int64{0, 1, -1, -7, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 62, math.MinInt64, 7919}

// exercise records n values drawn from r through every *rand.Rand method
// in turn, so two generators agree on the record only if their streams
// agree under each method's own use of the source.
func exercise(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n)
	buf := make([]byte, 13)
	for i := 0; len(out) < n; i++ {
		switch i % 15 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, uint64(r.Int31()))
		case 2:
			out = append(out, uint64(r.Int()))
		case 3:
			out = append(out, uint64(r.Uint32()))
		case 4:
			out = append(out, r.Uint64())
		case 5:
			out = append(out, uint64(r.Int63n(1e12+7)), uint64(r.Int63n(1<<40)))
		case 6:
			out = append(out, uint64(r.Int31n(1_000_003)), uint64(r.Int31n(1<<20)))
		case 7:
			out = append(out, uint64(r.Intn(97)), uint64(r.Intn(1<<40+3)))
		case 8:
			out = append(out, math.Float64bits(r.Float64()))
		case 9:
			out = append(out, uint64(math.Float32bits(r.Float32())))
		case 10:
			for _, v := range r.Perm(9) {
				out = append(out, uint64(v))
			}
		case 11:
			a := []int{0, 1, 2, 3, 4, 5, 6, 7}
			r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			for _, v := range a {
				out = append(out, uint64(v))
			}
		case 12:
			r.Read(buf)
			for _, b := range buf {
				out = append(out, uint64(b))
			}
		case 13:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 14:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		}
	}
	return out
}

// firstDiff is the index of the first differing value, or -1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func oracle(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestStreamIdentity pins the package's contract: at every identity seed,
// every *rand.Rand method draws what it draws from rand.NewSource, over
// runs long enough to cross from the lazy build to plain draws and to wrap
// the state table several times.
func TestStreamIdentity(t *testing.T) {
	const n = 6000
	for _, seed := range identitySeeds {
		if i := firstDiff(exercise(New(seed), n), exercise(oracle(seed), n)); i >= 0 {
			t.Errorf("seed %d: methods diverge from math/rand at value %d", seed, i)
		}
		// Raw draws alone: every switch point (the last lazy draw, the
		// first table wrap) lands on a known draw index.
		lazy, std := New(seed), oracle(seed)
		for d := 0; d < 3*rngLen; d++ {
			if a, b := lazy.Uint64(), std.Uint64(); a != b {
				t.Fatalf("seed %d: draw %d is %#x, math/rand draws %#x", seed, d, a, b)
			}
		}
	}
}

// TestReseedUsedGenerator: Seed on a generator that has drawn past the
// lazy phase, and a pooled generator handed out again by Get, both restart
// exactly rand.NewSource's stream (including Read's buffered bytes).
func TestReseedUsedGenerator(t *testing.T) {
	const n = 1500
	for _, seed := range identitySeeds {
		r := New(seed + 1)
		exercise(r, 1000)
		r.Seed(seed)
		if i := firstDiff(exercise(r, n), exercise(oracle(seed), n)); i >= 0 {
			t.Errorf("reseeded to %d: diverges from math/rand at value %d", seed, i)
		}

		g := Get(seed ^ 0x5eed)
		exercise(g, 1000)
		Put(g)
		g = Get(seed)
		if i := firstDiff(exercise(g, n), exercise(oracle(seed), n)); i >= 0 {
			t.Errorf("pooled Get(%d): diverges from math/rand at value %d", seed, i)
		}
		Put(g)
	}
}

// FuzzLazySource compares any seed and run length against math/rand.
func FuzzLazySource(f *testing.F) {
	for _, seed := range identitySeeds {
		f.Add(seed, uint16(lazyDraws+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 4096
		if i := firstDiff(exercise(New(seed), n), exercise(oracle(seed), n)); i >= 0 {
			t.Fatalf("seed %d, %d values: diverges from math/rand at value %d", seed, n, i)
		}
	})
}

// TestOneConstructor keeps lazyrand the one way the program builds a
// generator: no non-test file under internal/ or cmd/ outside this
// package calls math/rand's NewSource. (README, geneva.go's docs and
// examples/ keep the stdlib form: they show public use.)
func TestOneConstructor(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if abs, _ := filepath.Abs(filepath.Dir(path)); abs == self {
				return nil
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			names := map[string]bool{}
			for _, imp := range file.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
					name := "rand"
					if imp.Name != nil {
						name = imp.Name.Name
					}
					names[name] = true
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewSource" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
					t.Errorf("%s: calls math/rand.NewSource; build generators with lazyrand.New or Get", fset.Position(sel.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

var sink uint64

// BenchmarkSeed prices what a trial pays per generator: seed it and draw
// a handful of values, lazily (pooled) and with math/rand.
func BenchmarkSeed(b *testing.B) {
	b.Run("lazyrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := Get(int64(i))
			for d := 0; d < 8; d++ {
				sink += r.Uint64()
			}
			Put(r)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for d := 0; d < 8; d++ {
				sink += r.Uint64()
			}
		}
	})
}

// BenchmarkDraw is the steady per-draw cost once every word is built.
func BenchmarkDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"lazyrand", New(1)}, {"mathrand", oracle(1)}} {
		r := c.r
		for d := 0; d < lazyDraws; d++ {
			r.Uint64()
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += r.Uint64()
			}
		})
	}
}
