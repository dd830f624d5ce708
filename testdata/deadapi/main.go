// Command main is the census self-test's caller: what it reaches is live.
package main

import (
	"fmt"

	"plant/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), s, lib.Used(lib.Config{Set: 1}), lib.Check())
}
