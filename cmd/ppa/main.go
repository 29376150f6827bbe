// Command ppa is the command line of the reproduction, one subcommand per
// entry point of the paper's flow and evaluation: flow, bench, gen, cluster
// and vpr. `ppa` alone lists them and `ppa <subcommand> -h` a subcommand's
// flags. A usage error (unknown subcommand, design, enumerated value or
// -table name, or a bad flag) exits 2; any other error exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ppaclust/internal/designs"
)

const usage = `usage: ppa <subcommand> [flags]

  flow     run the clustered flow (Algorithm 1), or -default the flat one, and print its PPA
  bench    regenerate the paper's tables and figures (EXPERIMENTS.md)
  gen      write a built-in benchmark as .v .def .sdc .lib .lef
  cluster  compare the flow's clustering methods on cut, Rent exponent and modularity
  vpr      sweep the 20 shapes of the flow's clusters with exact V-P&R
`

// commands maps each subcommand to its entry point.
var commands = map[string]func(args []string) error{
	"flow": flowCmd, "bench": benchCmd, "gen": genCmd, "cluster": clusterCmd, "vpr": vprCmd,
}

// designFlag is the help text of every -design flag.
const designFlag = "benchmark: aes|jpeg|ariane|bp|mb|mpg"

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches to the subcommand args names and maps its error to the
// exit status.
func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "ppa: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	err := cmd(args[1:])
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintf(os.Stderr, "ppa %s: %v\n", args[0], err)
		}
		return 2
	}
	fmt.Fprintf(os.Stderr, "ppa %s: %v\n", args[0], err)
	return 1
}

// usageError is a command-line mistake. It is empty when flag has already
// reported the mistake together with the flag list.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, a ...any) error { return usageError(fmt.Sprintf(format, a...)) }

// parseFlags parses a subcommand's flags into fs.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && err != flag.ErrHelp {
		return usageError("")
	}
	return err
}

// generate builds the named built-in benchmark.
func generate(name string) (*designs.Benchmark, error) {
	spec, ok := designs.Named(name)
	if !ok {
		return nil, usagef("unknown design %q", name)
	}
	return designs.Generate(spec), nil
}

// writeFile creates path and fills it with fill. A failed create, write or
// close is returned, so a truncated file is never reported written.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
