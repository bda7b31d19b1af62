package formmatch

import (
	"testing"

	"piileak/internal/pii"
)

func TestMatchCommonNames(t *testing.T) {
	m := NewMatcher()
	cases := map[string]pii.Type{
		"email":          pii.TypeEmail,
		"user_email":     pii.TypeEmail,
		"loginEmail":     pii.TypeEmail,
		"E-Mail":         pii.TypeEmail,
		"name":           pii.TypeName,
		"firstName":      pii.TypeName,
		"lname":          pii.TypeName,
		"username":       pii.TypeUsername,
		"nickname":       pii.TypeUsername,
		"phone_number":   pii.TypePhone,
		"tel":            pii.TypePhone,
		"dob":            pii.TypeDOB,
		"birth_date":     pii.TypeDOB,
		"gender":         pii.TypeGender,
		"job_title":      pii.TypeJob,
		"street_address": pii.TypeAddress,
		"zip":            pii.TypeAddress,
	}
	for name, want := range cases {
		got, ok := m.Match(name)
		if !ok || got != want {
			t.Errorf("Match(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
}

func TestMatchPriorities(t *testing.T) {
	m := NewMatcher()
	// "username" contains "name" but must classify as username.
	if got, _ := m.Match("username"); got != pii.TypeUsername {
		t.Errorf("username matched as %q", got)
	}
}

func TestMatchExoticNamesFail(t *testing.T) {
	m := NewMatcher()
	for _, name := range []string{"field_a7", "f2", "contact_value", "input_93", ""} {
		if got, ok := m.Match(name); ok {
			t.Errorf("Match(%q) unexpectedly matched %q", name, got)
		}
	}
}

func TestCanComplete(t *testing.T) {
	m := NewMatcher()
	if !m.CanComplete([]string{"email", "name", "password", "terms_accept"}) {
		t.Error("standard form not completable")
	}
	if m.CanComplete([]string{"email", "field_a7"}) {
		t.Error("exotic form reported completable")
	}
	if m.CanComplete(nil) {
		t.Error("empty form reported completable")
	}
}
