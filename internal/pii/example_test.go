package pii_test

import (
	"fmt"

	"piileak/internal/pii"
)

// ExampleBuildCandidates shows the §3.1 candidate-set workflow: compile
// a persona's tokens, then scan traffic for any of them.
func ExampleBuildCandidates() {
	persona := pii.Default()
	cs, err := pii.BuildCandidates(persona, pii.CandidateConfig{
		MaxDepth:   1,
		Transforms: []string{"md5", "sha256"},
	})
	if err != nil {
		panic(err)
	}

	hashed := pii.MustApplyChain(persona.Email, []string{"sha256"})
	blob := []byte("https://tracker.example/p?ud=" + string(hashed))
	for _, tok := range cs.FindIn(blob) {
		fmt.Printf("%s of %s\n", pii.ChainLabel(tok.Chain), tok.Field.Type)
	}
	// Output:
	// sha256 of email
}

// ExampleChainLabel renders transform chains in the paper's Table 1b
// vocabulary.
func ExampleChainLabel() {
	fmt.Println(pii.ChainLabel(nil))
	fmt.Println(pii.ChainLabel([]string{"md5", "sha256"}))
	// Output:
	// plaintext
	// sha256ofmd5
}
