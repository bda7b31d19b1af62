package blocklist_test

import (
	"fmt"

	"piileak/internal/blocklist"
)

// Example shows the Adblock-Plus engine on a tracker request: the block
// rule matches, the exception saves an allowed path.
func Example() {
	list, err := blocklist.ParseList("easyprivacy", `
||tracker.example^$third-party
@@||tracker.example/unsubscribe^
`)
	if err != nil {
		panic(err)
	}
	engine := blocklist.NewEngine(list)

	for _, url := range []string{
		"https://px.tracker.example/collect?ud=abc",
		"https://px.tracker.example/unsubscribe?u=1",
	} {
		d := engine.Match(blocklist.RequestInfo{
			URL: url, PageHost: "www.shop.example",
			Type: blocklist.TypeImage, ThirdParty: true,
		})
		fmt.Printf("%v %s\n", d.Blocked, url)
	}
	// Output:
	// true https://px.tracker.example/collect?ud=abc
	// false https://px.tracker.example/unsubscribe?u=1
}
