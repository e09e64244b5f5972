//go:build !race

package httpd_test

const raceEnabled = false
