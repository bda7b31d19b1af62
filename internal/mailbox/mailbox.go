// Package mailbox simulates the persona's e-mail account (§3.2's
// confirmation links, §4.2.3's marketing-mail observations). Sites
// deliver account-confirmation links and, after sign-up, marketing mails
// to the inbox or spam folder; the study checks that no mail ever
// arrives from the third-party leak receivers.
package mailbox

import "fmt"

// Folder names a mailbox folder.
type Folder string

// Mailbox folders.
const (
	FolderInbox Folder = "inbox"
	FolderSpam  Folder = "spam"
)

// Kind classifies a message.
type Kind string

// Message kinds.
const (
	KindConfirmation Kind = "confirmation"
	KindMarketing    Kind = "marketing"
	KindSpam         Kind = "spam"
)

// Message is one delivered mail.
type Message struct {
	// FromDomain is the sending registrable domain.
	FromDomain string
	Subject    string
	Kind       Kind
	Folder     Folder
	// ConfirmLink carries the account-activation URL for
	// confirmation mails.
	ConfirmLink string
}

// Mailbox accumulates messages for one persona.
type Mailbox struct {
	Messages []Message
}

// DeliverConfirmation delivers an activation mail and returns its link.
func (m *Mailbox) DeliverConfirmation(siteDomain, link string) string {
	m.Messages = append(m.Messages, Message{
		FromDomain:  siteDomain,
		Subject:     "Confirm your account",
		Kind:        KindConfirmation,
		Folder:      FolderInbox,
		ConfirmLink: link,
	})
	return link
}

// DeliverMarketing delivers n inbox marketing mails and nSpam spam-folder
// mails from a site.
func (m *Mailbox) DeliverMarketing(siteDomain string, n, nSpam int) {
	for i := 0; i < n; i++ {
		m.Messages = append(m.Messages, Message{
			FromDomain: siteDomain,
			Subject:    fmt.Sprintf("Weekly deals #%d", i+1),
			Kind:       KindMarketing,
			Folder:     FolderInbox,
		})
	}
	for i := 0; i < nSpam; i++ {
		m.Messages = append(m.Messages, Message{
			FromDomain: siteDomain,
			Subject:    fmt.Sprintf("!!! Mega sale %d !!!", i+1),
			Kind:       KindSpam,
			Folder:     FolderSpam,
		})
	}
}

// Count returns the number of non-confirmation messages in a folder
// (the paper's 2,172 / 141 statistic excludes activation mails).
func (m *Mailbox) Count(folder Folder) int {
	n := 0
	for _, msg := range m.Messages {
		if msg.Folder == folder && msg.Kind != KindConfirmation {
			n++
		}
	}
	return n
}

// FromAny reports whether any message came from one of the given
// domains — the §4.2.3 check that leak receivers never mail the persona.
func (m *Mailbox) FromAny(domains map[string]bool) []string {
	var hits []string
	seen := map[string]bool{}
	for _, msg := range m.Messages {
		if domains[msg.FromDomain] && !seen[msg.FromDomain] {
			seen[msg.FromDomain] = true
			hits = append(hits, msg.FromDomain)
		}
	}
	return hits
}
