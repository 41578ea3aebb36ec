package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// after loading 120 days of clicks:
	// facts loaded: 360, rows stored: 360
	// fact bytes: 11520 (unreduced: 11520, savings: 0.0%), dimension bytes: 4255
	//   (Time.day, URL.url)                      rows=360      bytes=11520
	//   (Time.month, URL.domain)                 rows=0        bytes=0
	//   (Time.quarter, URL.domain_grp)           rows=0        bytes=0
	//
	// a year and a half later:
	// facts loaded: 360, rows stored: 4
	// fact bytes: 128 (unreduced: 11520, savings: 98.9%), dimension bytes: 4255
	//   (Time.day, URL.url)                      rows=0        bytes=0
	//   (Time.month, URL.domain)                 rows=0        bytes=0
	//   (Time.quarter, URL.domain_grp)           rows=4        bytes=128
	//
	// clicks per quarter and domain group:
	// fact_0: 2024Q1, .com | Clicks=273 Dwell=2730
	// fact_1: 2024Q1, .org | Clicks=273 Dwell=2730
	// fact_2: 2024Q2, .com | Clicks=87 Dwell=870
	// fact_3: 2024Q2, .org | Clicks=87 Dwell=870
	//
	// grand totals (exact despite reduction): clicks=720 dwell=7200
}
