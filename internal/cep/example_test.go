package cep_test

import (
	"fmt"
	"time"

	"erms/internal/cep"
)

// The judge's central query: per-file access counts over a sliding time
// window. Rows come in the order the files first appear in the window;
// callers filter and rank the counts in Go, here keeping the files opened
// more than once.
func Example() {
	now := 10 * time.Minute
	engine := cep.New(func() time.Duration { return now })
	stmt := engine.MustCompile(
		"select path, count(*) as cnt from Access.win:time(600 s) " +
			"where cmd = 'open' group by path")
	access := cep.NewSchema("Access", "path", "cmd")

	for i, path := range []string{"/hot", "/hot", "/hot", "/warm", "/cold", "/warm", "/hot"} {
		ev := access.Event(time.Duration(i) * time.Minute)
		ev.SetStr(0, path)
		ev.SetStr(1, "open")
		engine.Insert(ev)
	}
	stmt.EachRow(func(cols []cep.Val) {
		if cols[1].Num() > 1 {
			fmt.Printf("%s accessed %.0f times\n", cols[0].Str(), cols[1].Num())
		}
	})
	// Output:
	// /hot accessed 4 times
	// /warm accessed 2 times
}
