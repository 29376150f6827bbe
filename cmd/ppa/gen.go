package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ppaclust/internal/def"
	"ppaclust/internal/lef"
	"ppaclust/internal/liberty"
	"ppaclust/internal/sdc"
	"ppaclust/internal/verilog"
)

// genCmd emits a built-in benchmark as the standard EDA file set the flow
// consumes: gate-level Verilog (.v), floorplan DEF (.def), constraints SDC
// (.sdc), library Liberty (.lib) and LEF (.lef).
func genCmd(args []string) error {
	fs := flag.NewFlagSet("ppa gen", flag.ContinueOnError)
	design := fs.String("design", "aes", designFlag)
	outDir := fs.String("o", ".", "output directory")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := generate(*design)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, file := range []struct {
		ext   string
		write func(w io.Writer) error
	}{
		{".v", func(w io.Writer) error { return verilog.Write(w, b.Design) }},
		{".def", func(w io.Writer) error { return def.Write(w, b.Design) }},
		{".sdc", func(w io.Writer) error { return sdc.Write(w, b.Cons) }},
		{".lib", func(w io.Writer) error { return liberty.Write(w, b.Design.Lib) }},
		{".lef", func(w io.Writer) error { return lef.Write(w, b.Design.Lib) }},
	} {
		path := filepath.Join(*outDir, *design+file.ext)
		if err := writeFile(path, file.write); err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
	}
	return nil
}
