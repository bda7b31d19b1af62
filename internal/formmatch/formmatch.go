// Package formmatch implements the form-field matching heuristics an
// automated crawler needs to fill sign-up forms (the "effort ... to
// match all complicated fields with the right information" of the
// paper's §3.2, after Chatzimpyrros et al.). A human operator reads
// labels and always fills the right value; automation matches input
// names against keyword heuristics and fails on exotic markup — one of
// the reasons the study collected data manually.
package formmatch

import (
	"strings"

	"piileak/internal/pii"
)

// Matcher maps form-input names to PII types via keyword heuristics.
type Matcher struct {
	// rules maps a PII type to lowercase substrings that identify it.
	rules []rule
}

type rule struct {
	t        pii.Type
	keywords []string
}

// NewMatcher returns the default heuristics, modeled on what automated
// form-filling studies use: common English/Latin field-name fragments.
func NewMatcher() *Matcher {
	return &Matcher{rules: []rule{
		// Order matters: "username" must win over "name", and e-mail
		// fields often contain "mail" with qualifiers.
		{pii.TypeUsername, []string{"username", "user_name", "login_id", "nickname", "userid"}},
		{pii.TypeEmail, []string{"email", "e-mail", "e_mail", "mail"}},
		{pii.TypePhone, []string{"phone", "tel", "mobile", "msisdn"}},
		{pii.TypeDOB, []string{"dob", "birth", "bday"}},
		{pii.TypeGender, []string{"gender", "sex"}},
		{pii.TypeJob, []string{"job", "occupation", "profession", "title"}},
		{pii.TypeAddress, []string{"address", "street", "postal", "zip", "addr"}},
		{pii.TypeName, []string{"name", "fullname", "first", "last", "fname", "lname"}},
	}}
}

// Match classifies one input name, reporting false when no heuristic
// fires — the automated crawler then cannot fill the field.
func (m *Matcher) Match(inputName string) (pii.Type, bool) {
	n := strings.ToLower(strings.TrimSpace(inputName))
	if n == "" {
		return "", false
	}
	for _, r := range m.rules {
		for _, kw := range r.keywords {
			if strings.Contains(n, kw) {
				return r.t, true
			}
		}
	}
	return "", false
}

// CanComplete reports whether every required input is matchable — the
// automated crawler's precondition for submitting a form.
func (m *Matcher) CanComplete(requiredInputs []string) bool {
	for _, name := range requiredInputs {
		if isCredentialField(name) {
			continue // passwords/consent are fillable without PII
		}
		if _, ok := m.Match(name); !ok {
			return false
		}
	}
	return len(requiredInputs) > 0
}

func isCredentialField(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "pass") || strings.Contains(n, "pwd") ||
		strings.Contains(n, "consent") || strings.Contains(n, "terms") ||
		strings.Contains(n, "captcha")
}
