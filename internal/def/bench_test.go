package def

import (
	"os"
	"path/filepath"
	"testing"

	"ppaclust/internal/designs"
)

// BenchmarkParseDEF reads the DEF, nets included (the full reader ParseWith, not the loader's ReadFloorplan) of ScaleSpec(100000, 1) from a file on
// disk, as the loader opens it; generating and writing the file is set-up.
func BenchmarkParseDEF(b *testing.B) {
	d := designs.Generate(designs.ScaleSpec(100000, 1)).Design
	path := filepath.Join(b.TempDir(), "scale100000.def")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	err = Write(f, d)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		_, _, err = ParseWith(f, d.Lib, Options{File: path})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}
