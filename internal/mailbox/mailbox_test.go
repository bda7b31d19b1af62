package mailbox

import (
	"testing"
)

func TestDeliverAndCount(t *testing.T) {
	var m Mailbox
	m.DeliverConfirmation("shop.com", "https://shop.com/confirm?t=1")
	m.DeliverMarketing("shop.com", 3, 1)
	m.DeliverMarketing("store.net", 2, 0)

	if got := m.Count(FolderInbox); got != 5 {
		t.Errorf("inbox = %d, want 5 (confirmations excluded)", got)
	}
	if got := m.Count(FolderSpam); got != 1 {
		t.Errorf("spam = %d, want 1", got)
	}
}

func TestConfirmationLink(t *testing.T) {
	var m Mailbox
	link := m.DeliverConfirmation("shop.com", "https://shop.com/confirm?t=9")
	if link != "https://shop.com/confirm?t=9" {
		t.Errorf("link = %q", link)
	}
	if m.Messages[0].Kind != KindConfirmation || m.Messages[0].Folder != FolderInbox {
		t.Errorf("confirmation message misfiled: %+v", m.Messages[0])
	}
}

func TestFromAnyDetectsReceiverMail(t *testing.T) {
	var m Mailbox
	m.DeliverMarketing("shop.com", 2, 0)
	receivers := map[string]bool{"facebook.com": true, "criteo.com": true}
	if hits := m.FromAny(receivers); hits != nil {
		t.Errorf("unexpected receiver mail: %v", hits)
	}
	m.DeliverMarketing("criteo.com", 1, 0)
	hits := m.FromAny(receivers)
	if len(hits) != 1 || hits[0] != "criteo.com" {
		t.Errorf("hits = %v", hits)
	}
}
