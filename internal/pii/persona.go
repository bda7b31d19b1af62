// Package pii models the study persona (§3.1) and builds the candidate
// set of leaked-PII tokens: every registered encoding/hash transform chain
// up to a configurable depth applied to every PII field, compiled into an
// Aho-Corasick automaton for single-pass request scanning.
package pii

// Type labels one kind of personally identifiable information. The
// values match the paper's Table 1c vocabulary.
type Type string

// PII types collected on sign-up forms (§3.1).
const (
	TypeEmail    Type = "email"
	TypeUsername Type = "username"
	TypeName     Type = "name"
	TypePhone    Type = "phone"
	TypeDOB      Type = "dob"
	TypeGender   Type = "gender"
	TypeJob      Type = "job"
	TypeAddress  Type = "address"
)

// Field is one PII value with its type.
type Field struct {
	Type  Type   `json:"type"`
	Value string `json:"value"`
}

// Persona is the synthetic account identity used to complete
// authentication flows, mirroring the paper's §3.1 account fields.
type Persona struct {
	Username  string
	FirstName string
	LastName  string
	Phone     string
	Email     string
	DOB       string // ISO date
	Gender    string
	JobTitle  string
	Street    string
	City      string
	Postal    string
	Country   string
}

// Default returns the fixed persona the study harness uses. All values
// are synthetic and deterministic.
func Default() Persona {
	return Persona{
		Username:  "mtanaka2105",
		FirstName: "Mariko",
		LastName:  "Tanaka",
		Phone:     "+81355550123",
		Email:     "mariko.tanaka2105@piistudy.example.com",
		DOB:       "1988-05-21",
		Gender:    "female",
		JobTitle:  "research assistant",
		Street:    "2-1-2 Hitotsubashi",
		City:      "Tokyo",
		Postal:    "101-8430",
		Country:   "JP",
	}
}

// FullName returns "First Last".
func (p Persona) FullName() string { return p.FirstName + " " + p.LastName }

// Fields enumerates every PII value the persona types into forms. Name
// appears in three shapes (full, first, last) because sites split or join
// name inputs; all are treated as the "name" type, as in the paper.
func (p Persona) Fields() []Field {
	return []Field{
		{TypeEmail, p.Email},
		{TypeUsername, p.Username},
		{TypeName, p.FullName()},
		{TypeName, p.FirstName},
		{TypeName, p.LastName},
		{TypePhone, p.Phone},
		{TypeDOB, p.DOB},
		{TypeGender, p.Gender},
		{TypeJob, p.JobTitle},
		{TypeAddress, p.Street + ", " + p.City + " " + p.Postal},
		{TypeAddress, p.Postal},
	}
}

// FieldValue returns the canonical value for a PII type (the first
// matching field).
func (p Persona) FieldValue(t Type) string {
	for _, f := range p.Fields() {
		if f.Type == t {
			return f.Value
		}
	}
	return ""
}
