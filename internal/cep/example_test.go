package cep_test

import (
	"fmt"
	"time"

	"erms/internal/cep"
)

// The judge's central query: per-file access counts over a sliding time
// window, keeping the files opened more than once. Rows come in the order
// the files first appear in the window; callers that want a ranking sort.
func Example() {
	now := 10 * time.Minute
	engine := cep.New(func() time.Duration { return now })
	stmt := engine.MustCompile(
		"select path, count(*) as cnt from Access.win:time(600 s) " +
			"where cmd = 'open' group by path having cnt > 1")
	access := cep.NewSchema("Access", "path", "cmd")

	for i, path := range []string{"/hot", "/hot", "/hot", "/warm", "/cold", "/warm", "/hot"} {
		ev := access.Event(time.Duration(i) * time.Minute)
		ev.SetStr(0, path)
		ev.SetStr(1, "open")
		engine.Insert(ev)
	}
	for _, row := range stmt.MustRows() {
		fmt.Printf("%s accessed %.0f times\n", row.Str("path"), row.Num("cnt"))
	}
	// Output:
	// /hot accessed 4 times
	// /warm accessed 2 times
}
