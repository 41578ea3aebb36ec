package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// 54000 clicks over 18 months; aging under each strategy
	//
	// as of        strategy                     rows        bytes    dwell%  lossless
	// 2001/7/1     no-reduction                54000      2592000    100.0%      true
	// 2001/7/1     delete-after-3 months        8400       403200     15.7%     false
	// 2001/7/1     view-expire                  8850       424800    100.0%      true
	// 2001/7/1     spec-reduction               2006        96288    100.0%      true
	//
	// 2002/7/1     no-reduction                54000      2592000    100.0%      true
	// 2002/7/1     delete-after-3 months           0            0      0.0%     false
	// 2002/7/1     view-expire                   450        21600    100.0%      true
	// 2002/7/1     spec-reduction                 18          864    100.0%      true
	//
	// 2004/7/1     no-reduction                54000      2592000    100.0%      true
	// 2004/7/1     delete-after-3 months           0            0      0.0%     false
	// 2004/7/1     view-expire                   450        21600    100.0%      true
	// 2004/7/1     spec-reduction                 18          864    100.0%      true
	//
	// deletion wins on bytes but forgets history; view-expire keeps one
	// fixed view; spec-reduction keeps every declared granularity exact
	// while storage falls orders of magnitude below no-reduction.
}
