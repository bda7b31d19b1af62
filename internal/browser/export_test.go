package browser

import "piileak/internal/site"

// SitePage returns the host, registrable domain and origin b takes from
// site s for its page pageURL, for the differential test against
// parsing the page URL.
func SitePage(b *Browser, s *site.Site, pageURL string) (host, etld1, origin string) {
	pg := b.pageOn(s, pageURL)
	return pg.host, pg.etld1, pg.origin
}
