// Tracker-audit: use the detection library directly on hand-captured
// traffic — the workflow of an analyst who exported requests from their
// own browser (HAR-style) and wants to know whether their sign-up leaked
// PII, in which encoding, and to whom.
package main

import (
	"fmt"
	"log"

	"piileak/internal/detect"
	"piileak/internal/dnssim"
	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

func main() {
	// The identity that was typed into the sign-up form.
	persona := pii.Persona{
		Username:  "jdoe42",
		FirstName: "Jane",
		LastName:  "Doe",
		Email:     "jane.doe@example.org",
		Phone:     "+15550123456",
		DOB:       "1990-01-02",
		Gender:    "female",
		JobTitle:  "engineer",
		City:      "Berlin",
		Postal:    "10115",
		Street:    "Example Str. 1",
		Country:   "DE",
	}

	// The DNS view observed during capture: one first-party subdomain is
	// CNAME-cloaked to Adobe.
	zone := dnssim.NewZone()
	zone.AddCNAME("smetrics.myshop.example", "myshop.sc.omtrdc.net")

	// Compile the detection engine: the candidate set — plaintext plus
	// every encoding/hash chain up to depth 2 (≈ 10k tokens, one
	// automaton) — and the CNAME classifier that uncloaks the zone.
	engine, err := detect.NewEngine(persona, dnssim.NewClassifier(zone), detect.Config{
		Candidates: pii.CandidateConfig{MaxDepth: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	candidates := engine.Candidates()
	fmt.Printf("candidate set: %d tokens, %d automaton states\n\n",
		candidates.Size(), candidates.States())

	// Three captured requests: a facebook pixel with a hashed email in
	// the URI, a JSON beacon with a base64 email, and a pageview to the
	// cloaked subdomain carrying an identifying cookie.
	sha := pii.MustApplyChain(persona.Email, []string{"sha256"})
	b64 := pii.MustApplyChain(persona.Email, []string{"base64"})
	records := []httpmodel.Record{
		{
			Seq: 1, Phase: httpmodel.PhaseSignup,
			Request: httpmodel.Request{
				Method: "GET",
				URL:    "https://www.facebook.com/tr/collect?udff[em]=" + string(sha) + "&v=2",
			},
		},
		{
			Seq: 2, Phase: httpmodel.PhaseSignin,
			Request: httpmodel.Request{
				Method:   "POST",
				URL:      "https://api.bluecore.com/events",
				Body:     []byte(`{"data":"` + string(b64) + `","event":"identify"}`),
				BodyType: "application/json",
			},
		},
		{
			Seq: 3, Phase: httpmodel.PhaseSubpage,
			Request: httpmodel.Request{
				Method: "GET",
				URL:    "https://smetrics.myshop.example/b/ss/pageview",
				Cookies: []httpmodel.Cookie{
					{Name: "s_ecid", Value: string(sha), Domain: "smetrics.myshop.example"},
				},
			},
		},
	}

	leaks := engine.DetectSite("myshop.example", records)
	fmt.Printf("%d leaks detected:\n", len(leaks))
	for _, l := range leaks {
		cloak := ""
		if l.Cloaked {
			cloak = " (CNAME-cloaked)"
		}
		fmt.Printf("  %-9s -> %-16s%s  %s of %s in %q\n",
			l.Method, l.Receiver, cloak, l.EncodingLabel(), l.Token.Field.Type, l.Param)
	}
}
